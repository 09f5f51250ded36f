package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/durable"
	"legosdn/internal/replica"
)

// workload describes one of the four configurations. Everything not
// listed here is what cmd/legosdn ships: serial dispatch, a checkpoint
// before every event, a full image every 16th, group-commit WALs with
// fsync on, three replicas committing by quorum with a 150 ms lease
// renewed every 50 ms. The one departure is the proxies' EventTimeout
// (see eventTimeout).
type workload struct {
	name string
	// apps are registry names in dispatch order; the first is the
	// learning switch and carries the injected bug.
	apps       []string
	mode       core.Mode
	durable    bool
	replicated bool
	mixed      bool // fanout4's event mix
	// warmup is the fixed number of closed-loop events that ends set-up.
	warmup int
	// faults is how many faults the fault phase injects (on `isolated`,
	// which has no recovery: crash-and-respawn cycles on a bare proxy,
	// 0.15 ms each, so many of them), between is the number of ordinary
	// events before each.
	faults, between int
}

var workloads = []workload{
	{name: "isolated", apps: []string{"learning-switch"}, mode: core.ModeIsolated,
		warmup: 20000, faults: 20000},
	{name: "fanout4", apps: []string{"learning-switch", "firewall", "stats-collector", "spanning-tree"},
		mode: core.ModeLegoSDN, mixed: true, warmup: 6000, faults: 200, between: 25},
	{name: "durable", apps: []string{"learning-switch"}, mode: core.ModeLegoSDN, durable: true,
		warmup: 1500, faults: 150, between: 10},
	{name: "replicated", apps: []string{"learning-switch"}, mode: core.ModeLegoSDN, durable: true,
		replicated: true, warmup: 600, faults: 12, between: 30},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	checkpointDelta = 16
	leaseTTL        = 150 * time.Millisecond
	heartbeatEvery  = 50 * time.Millisecond
)

// stateRoot holds every state directory of this process. It sits under
// the benchmark's own directory, on the disk the checkout is on: the
// durable layer's cost is the disk's fsync, and tmpfs would hide it.
var stateRoot = filepath.Join("out", fmt.Sprintf("state-%d", os.Getpid()))

var stateSeq atomic.Uint64

func newStateDir() (string, error) {
	dir := filepath.Join(stateRoot, fmt.Sprintf("%03d", stateSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// env is one assembled deployment: fabric, control plane, apps, and the
// tracker that watches the hosts.
type env struct {
	w     workload
	fab   *fabric
	trk   *tracker
	sched *schedule
	rec   *recorder // nil in untraced runs

	stack   *core.Stack // single-node workloads
	state   *durable.State
	cluster *replica.Cluster
	dir     string

	// cur is the stack the generator's last event went to, and due the
	// value of its Processed counter once it has finished every event the
	// generator gave it (see drained).
	cur *core.Stack
	due uint64
}

// appFactories returns one factory per app of the workload. Each call of
// a factory yields a fresh instance, as stub (re)launches need. Only the
// learning switch is wrapped in an untraced run.
func appFactories(w workload, rec *recorder) ([]func() controller.App, error) {
	factories := make([]func() controller.App, 0, len(w.apps))
	for i, name := range w.apps {
		probe, err := apps.New(name)
		if err != nil {
			return nil, err
		}
		poison := i == 0
		if !poison && rec == nil {
			factories = append(factories, func() controller.App { return mustApp(name) })
			continue
		}
		if _, err := newBenchApp(probe, i, poison, rec); err != nil {
			return nil, err
		}
		factories = append(factories, func() controller.App {
			app, _ := newBenchApp(mustApp(name), i, poison, rec)
			return app
		})
	}
	return factories, nil
}

// mustApp builds a registry app whose name appFactories has validated.
func mustApp(name string) controller.App {
	app, err := apps.New(name)
	if err != nil {
		panic(err)
	}
	return app
}

// newEnv brings a deployment up to the point where events can flow:
// state directory, fabric, stack or cluster, stubs launched, switches
// handshaken. sched continues across deployments of one run.
func newEnv(w workload, sched *schedule, rec *recorder) (*env, error) {
	e := &env{w: w, sched: sched, rec: rec, trk: newTracker()}
	var err error
	if e.fab, err = newFabric(e.trk.receive); err != nil {
		return nil, err
	}
	factories, err := appFactories(w, rec)
	if err != nil {
		return nil, err
	}
	if w.durable {
		if e.dir, err = newStateDir(); err != nil {
			return nil, err
		}
	}
	if w.replicated {
		e.cluster = replica.New(replica.Options{
			Dir:            e.dir,
			Replicas:       3,
			CommitMode:     replica.CommitQuorum,
			LeaseTTL:       leaseTTL,
			HeartbeatEvery: heartbeatEvery,
			WAL:            durable.Options{GroupCommit: true},
			EventTimeout:   eventTimeout,
			Apps:           factories,
		})
		if err := e.cluster.Start(e.fab.net); err != nil {
			e.close()
			return nil, fmt.Errorf("starting cluster: %w", err)
		}
		e.hook(e.cluster.Stack())
		return e, nil
	}
	cfg := core.Config{Mode: w.mode, CheckpointDelta: checkpointDelta, EventTimeout: eventTimeout}
	if w.durable {
		if e.state, err = durable.OpenState(e.dir, 0, durable.Options{GroupCommit: true}); err != nil {
			e.close()
			return nil, err
		}
		cfg.Durable = e.state
		if rec != nil {
			cfg.Journal = &tracedJournal{inner: e.state.Journal, rec: rec}
		}
	}
	e.stack = core.NewStack(cfg)
	for _, f := range factories {
		if err := e.stack.AddApp(f); err != nil {
			e.close()
			return nil, err
		}
	}
	if err := e.stack.ConnectNetwork(e.fab.net); err != nil {
		e.close()
		return nil, err
	}
	e.hook(e.stack)
	return e, nil
}

// hook appends the recorder's outbound hook behind NetLog's.
func (e *env) hook(s *core.Stack) {
	if e.rec != nil && s != nil {
		s.Controller.AddOutboundHook(e.rec.outboundHook())
	}
}

// serving returns the stack events go to: the single node's, or the
// current leader's (nil while a failover is in progress).
func (e *env) serving() *core.Stack {
	if e.cluster != nil {
		return e.cluster.Stack()
	}
	return e.stack
}

// drained waits until the stack the generator last injected into has
// finished everything it was given, and reports whether it came to that
// within eventTimeout. A frame leaves before its event's transaction
// commits, so the generator being idle is not enough; the controller
// counts an event as processed only after the commit record is written
// (and acknowledged by the quorum) and the barriers are back. A leader
// shows up in Cluster.Stack only after its switch-up events have been
// dispatched, so the count at the first event injected is exact.
func (e *env) drained() bool {
	if e.cur == nil {
		return true
	}
	done := func() bool { return e.cur.Controller.Processed.Load() >= e.due }
	for deadline := time.Now().Add(eventTimeout); !done() && time.Now().Before(deadline); {
		// Sleeping, not spinning: a spinning goroutine keeps the scheduler
		// from polling the network, which delays the very work awaited.
		time.Sleep(100 * time.Microsecond)
	}
	return done()
}

// close tears the deployment down. Its state directory stays until the
// process removes stateRoot on its way out: the sandbox's disk is mounted
// with discard, and deleting files mid-run puts TRIMs into the journal
// commits the next deployment's fsyncs wait for.
func (e *env) close() {
	// Closing a cluster stops the shippers first, so a commit still
	// waiting for its quorum would hold Close for the whole QuorumTimeout
	// and count as a write that gave up on the quorum.
	e.drained()
	if e.cluster != nil {
		e.cluster.Close()
	}
	if e.stack != nil {
		e.stack.Close()
	}
	if e.state != nil {
		e.state.Close()
	}
}
