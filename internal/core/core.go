// Package core is LegoSDN's public façade: it assembles the controller,
// AppVisor isolation layer, NetLog transaction engine and Crash-Pad
// recovery engine into one Stack, configured by architecture mode. The
// three modes reproduce the paper's comparison axis:
//
//   - ModeMonolithic — Figure 1 (left): apps share the controller's
//     fate; one crash downs the control plane.
//   - ModeIsolated — AppVisor only: crashes are contained, the crashed
//     app stays down until respawned, no rollback.
//   - ModeLegoSDN — the full system: isolation + checkpoints + network
//     transactions + policy-driven recovery (Figure 1, right).
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/crashpad"
	"legosdn/internal/durable"
	"legosdn/internal/flightrec"
	"legosdn/internal/flowtable"
	"legosdn/internal/metrics"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// Mode selects the controller architecture.
type Mode int

// Architecture modes.
const (
	ModeMonolithic Mode = iota
	ModeIsolated
	ModeLegoSDN
)

func (m Mode) String() string {
	switch m {
	case ModeMonolithic:
		return "monolithic"
	case ModeIsolated:
		return "isolated"
	case ModeLegoSDN:
		return "legosdn"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config assembles a Stack.
type Config struct {
	// Mode picks the architecture (default ModeLegoSDN).
	Mode Mode
	// CheckpointEvery is Crash-Pad's checkpoint cadence (default 1).
	CheckpointEvery int
	// CheckpointDelta enables incremental checkpoints: the store keeps a
	// full image every CheckpointDelta-th put per app and byte-range
	// deltas between, with accessors reconstructing transparently.
	// <=1 disables (every checkpoint a full image).
	CheckpointDelta int
	// Policies is the operator availability/correctness policy set
	// (default: absolute compromise everywhere).
	Policies *crashpad.PolicySet
	// UseDelayBuffer replaces NetLog with the §4.1 delay-buffer
	// prototype (ablation).
	UseDelayBuffer bool
	// Checker, when set, enables byzantine failure detection.
	Checker crashpad.InvariantChecker
	// OnNetworkShutdown handles No-Compromise invariant escalation.
	OnNetworkShutdown func([]crashpad.Violation)
	// Store persists checkpoints across Stack instances (controller
	// upgrades); nil allocates a private store.
	Store *checkpoint.Store
	// Durable wires the stack to an on-disk state directory (opened by
	// the caller via durable.OpenState): checkpoints persist through its
	// WAL-backed store (superseding Store), NetLog journals transaction
	// lifecycles, and ConnectNetwork rolls back any transaction a crash
	// interrupted before new events flow. The caller keeps ownership —
	// Stack.Close does not close it, so a simulated SIGKILL (abandoning
	// the stack without closing the state) leaves the journal exactly as
	// a real crash would.
	Durable *durable.State
	// Journal overrides the NetLog journal wiring when Durable is set:
	// the replicated control plane wraps Durable.Journal so every append
	// also waits for follower acknowledgment (wait-for-quorum commit).
	// Nil keeps the plain Durable.Journal.
	Journal netlog.Journal
	// Clock drives NetLog timeout bookkeeping (nil = real time).
	Clock flowtable.Clock
	// EventTimeout bounds one proxied event round trip (default 2s).
	EventTimeout time.Duration
	// HeartbeatTimeout tunes crash detection via heartbeat loss
	// (default 500ms; negative disables).
	HeartbeatTimeout time.Duration
	// StubBinary, when set, hosts each app in its own OS process using
	// this cmd/legosdn-stub binary (true address-space isolation, as in
	// the paper's prototype). Apps must then be registry apps: the stub
	// process materializes them by name. Empty selects in-process
	// goroutine-domain stubs.
	StubBinary string
	// OnTicket observes Crash-Pad problem tickets.
	OnTicket func(*crashpad.Ticket)
	// Logf receives controller diagnostics.
	Logf func(format string, args ...any)
	// Metrics is the registry every layer reports into; nil allocates a
	// private one (exposed as Stack.Metrics).
	Metrics *metrics.Registry
	// Tracer samples injected events into end-to-end traces spanning
	// controller dispatch, AppVisor round trips, NetLog transactions and
	// Crash-Pad recovery. Nil disables tracing; disabled tracing costs
	// one nil check per stage.
	Tracer *trace.Tracer
	// Logger receives structured diagnostics from every layer; it is
	// wrapped with trace.WrapHandler so log lines carried by traced
	// events include the trace id. Nil disables structured logging.
	Logger *slog.Logger
	// Flight is the always-on crash flight recorder shared by every
	// layer. Unlike Tracer it cannot be disabled: nil allocates one with
	// default ring sizes, so the last moments before a crash are always
	// available to autopsy reports (exposed as Stack.Flight).
	Flight *flightrec.Recorder
	// AutopsyDir persists autopsy reports, one JSON line each, to
	// AutopsyDir/autopsies.jsonl. Empty defaults to <Durable
	// dir>/autopsies when Durable is set, else autopsies stay
	// in-memory only (served by Stack.Autopsies.HTTPHandler).
	AutopsyDir string
}

// Stack is a fully wired LegoSDN deployment.
type Stack struct {
	Mode       Mode
	Controller *controller.Controller
	NetLog     *netlog.Manager
	DelayBuf   *netlog.DelayBuffer
	CrashPad   *crashpad.CrashPad
	Store      *checkpoint.Store
	Metrics    *metrics.Registry
	Flight     *flightrec.Recorder
	Autopsies  *flightrec.Store

	cfg Config

	mu        sync.Mutex
	proxies   map[string]*appvisor.Proxy
	replicas  map[string]func() controller.App
	closed    bool
	recovered bool
}

// NewStack builds and starts a stack in the configured mode.
func NewStack(cfg Config) *Stack {
	if cfg.CheckpointEvery < 1 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Durable != nil {
		cfg.Store = cfg.Durable.Store()
	}
	if cfg.Store == nil {
		cfg.Store = checkpoint.NewStore(0)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logger != nil {
		cfg.Logger = slog.New(trace.WrapHandler(cfg.Logger.Handler()))
	}
	if cfg.CheckpointDelta > 1 {
		cfg.Store.SetDeltaEvery(cfg.CheckpointDelta)
	}
	if cfg.Flight == nil {
		cfg.Flight = flightrec.New(flightrec.Options{})
	}
	if cfg.AutopsyDir == "" && cfg.Durable != nil {
		cfg.AutopsyDir = filepath.Join(cfg.Durable.Dir(), "autopsies")
	}
	autopsies := flightrec.NewStore(cfg.AutopsyDir, 0)
	cfg.Store.Instrument(cfg.Metrics)
	cfg.Store.SetLogger(cfg.Logger)
	cfg.Flight.Instrument(cfg.Metrics)
	autopsies.Instrument(cfg.Metrics)
	s := &Stack{
		Mode:      cfg.Mode,
		Store:     cfg.Store,
		Metrics:   cfg.Metrics,
		Flight:    cfg.Flight,
		Autopsies: autopsies,
		cfg:       cfg,
		proxies:   make(map[string]*appvisor.Proxy),
		replicas:  make(map[string]func() controller.App),
	}
	cfg.Tracer.Instrument(cfg.Metrics)
	RegisterBuildInfo(cfg.Metrics)
	if cfg.Durable != nil {
		cfg.Durable.Instrument(cfg.Metrics)
	}

	ctrlCfg := controller.Config{Logf: cfg.Logf, Metrics: cfg.Metrics,
		Tracer: cfg.Tracer, Logger: cfg.Logger, Flight: cfg.Flight}
	switch cfg.Mode {
	case ModeMonolithic:
		ctrlCfg.Monolithic = true
		s.Controller = controller.New(ctrlCfg)
	case ModeIsolated:
		ctrlCfg.Runner = isolatedRunner{}
		s.Controller = controller.New(ctrlCfg)
	case ModeLegoSDN:
		s.Controller = controller.New(ctrlCfg)
		if cfg.UseDelayBuffer {
			s.DelayBuf = netlog.NewDelayBuffer(s.Controller)
			s.DelayBuf.Instrument(cfg.Metrics)
			s.Controller.AddOutboundHook(s.DelayBuf.Hook())
		} else {
			s.NetLog = netlog.NewManager(s.Controller, cfg.Clock)
			s.NetLog.Instrument(cfg.Metrics)
			s.NetLog.SetTracer(cfg.Tracer)
			s.NetLog.SetFlight(cfg.Flight)
			switch {
			case cfg.Journal != nil:
				s.NetLog.SetJournal(cfg.Journal)
			case cfg.Durable != nil:
				s.NetLog.SetJournal(cfg.Durable.Journal)
			}
			s.NetLog.Install(s.Controller)
		}
		s.CrashPad = crashpad.New(crashpad.Options{
			Store:             cfg.Store,
			CheckpointEvery:   cfg.CheckpointEvery,
			Policies:          cfg.Policies,
			NetLog:            s.NetLog,
			DelayBuffer:       s.DelayBuf,
			Checker:           cfg.Checker,
			OnTicket:          cfg.OnTicket,
			OnNetworkShutdown: cfg.OnNetworkShutdown,
			Metrics:           cfg.Metrics,
			Tracer:            cfg.Tracer,
			Logger:            cfg.Logger,
			Flight:            cfg.Flight,
			Autopsies:         autopsies,
			// Deep recovery (§5) replays against throwaway replicas
			// built from the same factories AddApp registered.
			ReplicaFactory: func(name string) controller.App {
				s.mu.Lock()
				factory := s.replicas[name]
				s.mu.Unlock()
				if factory == nil {
					return nil
				}
				return factory()
			},
		})
		s.Controller.SetRunner(s.CrashPad)
	}
	return s
}

// AddApp installs an SDN-App under the stack's architecture. newApp
// must return a fresh instance on each call: isolation modes use it to
// (re)launch stubs, and the monolithic mode calls it exactly once. If
// the checkpoint store holds prior state for the app (e.g. from before
// a controller upgrade), the app is restored from it.
func (s *Stack) AddApp(newApp func() controller.App) error {
	probe := newApp()
	name := probe.Name()
	s.mu.Lock()
	s.replicas[name] = newApp
	s.mu.Unlock()
	switch s.Mode {
	case ModeMonolithic:
		s.restoreIfCheckpointed(probe, name)
		s.Controller.Register(probe)
		return nil
	default:
		// In-process stubs share the stack's tracer, so their handler
		// spans land in the same ring; subprocess stubs get their own
		// tracer (cmd/legosdn-stub) joined by the wire-propagated ids.
		factory := appvisor.InProcessFactory(newApp, appvisor.StubOptions{Tracer: s.cfg.Tracer})
		if s.cfg.StubBinary != "" {
			factory = appvisor.SubprocessFactory(s.cfg.StubBinary, name)
		}
		proxy, err := appvisor.NewProxy(name, s.Controller, factory,
			appvisor.ProxyOptions{
				EventTimeout:     s.cfg.EventTimeout,
				HeartbeatTimeout: s.cfg.HeartbeatTimeout,
				Metrics:          s.Metrics,
				Tracer:           s.cfg.Tracer,
				Flight:           s.cfg.Flight,
			})
		if err != nil {
			return fmt.Errorf("core: launching stub for %q: %w", name, err)
		}
		s.restoreIfCheckpointed(proxy, name)
		s.mu.Lock()
		s.proxies[name] = proxy
		s.mu.Unlock()
		s.Controller.Register(proxy)
		return nil
	}
}

// restoreIfCheckpointed loads the newest stored image into the app, the
// §3.4 controller-upgrade path: state survives in the isolation layer
// while the controller restarts.
func (s *Stack) restoreIfCheckpointed(app controller.App, name string) {
	snap, ok := app.(controller.Snapshotter)
	if !ok {
		return
	}
	if cp := s.Store.Latest(name); cp != nil {
		_ = snap.Restore(cp.State)
	}
}

// Proxy returns the AppVisor proxy hosting the named app (nil in
// monolithic mode or for unknown names).
func (s *Stack) Proxy(name string) *appvisor.Proxy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.proxies[name]
}

// ConnectNetwork attaches every switch in the simulated network over
// in-memory pipes and waits for their handshakes to finish dispatching.
func (s *Stack) ConnectNetwork(n *netsim.Network) error {
	conns := make([]*openflow.Conn, 0, len(n.Switches()))
	for _, sw := range n.Switches() {
		ctrlSide, swSide := openflow.Pipe()
		if err := sw.Attach(swSide); err != nil {
			return err
		}
		conns = append(conns, ctrlSide)
	}
	return s.ConnectConns(conns)
}

// ConnectConns attaches already-established switch connections (the
// switch end must be pumping — e.g. a netsim slave connection promoted
// to master during failover), waits for the handshakes to finish
// dispatching, and then runs durable recovery. This is the failover
// entry point: a promoted replica adopts the previous leader's switch
// connections without re-dialing.
func (s *Stack) ConnectConns(conns []*openflow.Conn) error {
	target := s.Controller.Processed.Load()
	for _, conn := range conns {
		if err := s.Controller.AttachSwitchConn(conn); err != nil {
			return err
		}
		target++
	}
	// Wait for the queued SwitchUp events to dispatch, so callers can
	// immediately inject traffic without racing app registration state.
	deadline := time.Now().Add(5 * time.Second)
	for s.Controller.Processed.Load() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: switch-up events never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	return s.recoverDurable()
}

// recoverDurable rolls back any transaction the previous controller
// incarnation left open in the durable journal. It runs once, after the
// switches have attached (the inverses need live connections) and
// before the caller starts injecting traffic — the "before new events
// flow" half of the crash-consistency contract. The inverse sends pass
// through NetLog's outbound hook with no active transaction, so the
// shadow tables absorb them and end consistent with the switches.
func (s *Stack) recoverDurable() error {
	d := s.cfg.Durable
	if d == nil {
		return nil
	}
	s.mu.Lock()
	ran := s.recovered
	s.recovered = true
	s.mu.Unlock()
	if ran || len(d.Journal.Orphans()) == 0 {
		return nil
	}
	// The previous incarnation died with transactions open: this restart
	// is itself a recovery, so it gets a timeline and an autopsy like any
	// app crash. Detect covers the orphan scan (charged up to here),
	// rollback covers the inverse replay; there is no checkpoint restore
	// or event replay in this path, so those phases report zero.
	orphans := len(d.Journal.Orphans())
	tl := flightrec.NewTimeline(nil)
	s.cfg.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCrashPad, Kind: flightrec.KindCrashDetected,
		App:  "controller",
		Note: fmt.Sprintf("durable journal holds %d orphaned txn(s)", orphans),
	})
	sp := s.cfg.Tracer.StartSpan(s.cfg.Tracer.Root(), "durable.recover")
	tl.Enter(flightrec.PhaseRollback)
	txns, mods, err := d.ReplayOrphans(s.Controller, time.Now())
	tl.Enter(flightrec.PhaseResume)
	sp.AttrInt("txns", int64(txns)).AttrInt("mods", int64(mods))
	if err != nil {
		sp.Attr("error", err.Error())
	}
	sp.End()
	outcome := "Recovered"
	if err != nil {
		outcome = "Failed"
	}
	s.cfg.Flight.Record(flightrec.Record{
		Layer: flightrec.LayerCrashPad, Kind: flightrec.KindRecoveryDone,
		App:  "controller",
		Note: fmt.Sprintf("durable recovery: %d txn(s), %d mod(s), outcome=%s", txns, mods, outcome),
	})
	evidence := s.cfg.Flight.Correlated("controller", 0, 0, 16) // inside the timeline, as in Crash-Pad
	tl.Finish()
	a := &flightrec.Autopsy{
		App:     "controller",
		Trigger: "durable-recovery",
		Class:   "crash-restart",
		Culprit: fmt.Sprintf("%d orphaned transaction(s) in durable journal", orphans),
		Outcome: outcome,
		Notes: []string{
			fmt.Sprintf("rolled back %d txn(s) via %d inverse mod(s)", txns, mods),
		},
		Timeline:        tl.Phases(),
		RecoverySeconds: tl.Total().Seconds(),
		Records:         evidence,
	}
	if err != nil {
		a.Notes = append(a.Notes, "error: "+err.Error())
	}
	s.Autopsies.Add(a)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("durable recovery finished",
			"txns", txns, "mods", mods, "err", err)
	}
	if err != nil {
		return fmt.Errorf("core: durable recovery: %w", err)
	}
	return nil
}

// Snapshot checkpoints the named app immediately (outside the every-N
// cadence); used before planned controller upgrades.
func (s *Stack) Snapshot(name string) error {
	var snap controller.Snapshotter
	if p := s.Proxy(name); p != nil {
		snap = p
	} else {
		return fmt.Errorf("core: no proxy for %q", name)
	}
	state, err := snap.Snapshot()
	if err != nil {
		return err
	}
	s.Store.Put(name, 0, state)
	return nil
}

// Close shuts down the controller and every stub, and closes the
// autopsy log.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	proxies := make([]*appvisor.Proxy, 0, len(s.proxies))
	for _, p := range s.proxies {
		proxies = append(proxies, p)
	}
	s.mu.Unlock()
	s.Controller.Stop()
	for _, p := range proxies {
		p.Close()
	}
	_ = s.Autopsies.Close() // counted in its PersistErrors
}

// isolatedRunner is the AppVisor-only mode's runner: in-process panics
// are contained, and a proxy's CrashError quarantines the app (no
// recovery machinery, matching a deployment with isolation but without
// Crash-Pad).
type isolatedRunner struct{}

func (isolatedRunner) RunEvent(app controller.App, ctx controller.Context, ev controller.Event) (failure *controller.AppFailure) {
	defer func() {
		if r := recover(); r != nil {
			failure = &controller.AppFailure{App: app.Name(), Event: ev, PanicValue: r}
		}
	}()
	err := app.HandleEvent(ctx, ev)
	var ce *appvisor.CrashError
	if errors.As(err, &ce) {
		return &controller.AppFailure{
			App:        app.Name(),
			Event:      ev,
			PanicValue: ce.Report.PanicValue,
			Stack:      []byte(ce.Report.Stack),
		}
	}
	return nil
}
