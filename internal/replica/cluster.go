package replica

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/durable"
	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// CommitMode selects when a NetLog journal write is considered done.
type CommitMode int

const (
	// CommitAsync acknowledges a journal write once the leader's local
	// WAL holds it; replication to followers is best-effort background
	// shipping. Fastest, but a leader crash can lose the tail the
	// followers had not yet received (those transactions are then
	// presumed-aborted on the *old* leader's disk only).
	CommitAsync CommitMode = iota
	// CommitQuorum blocks each journaled operation until a majority of
	// replicas (leader included) hold its record — and with it, the log
	// being shipped in order, every record before it — so any elected
	// successor's journal covers every operation a switch ever saw.
	// Closing records do not wait; see quorumJournal.
	CommitQuorum
)

func (m CommitMode) String() string {
	if m == CommitQuorum {
		return "quorum"
	}
	return "async"
}

// Options configures a replicated control plane.
type Options struct {
	// Dir is the root state directory; replica i lives in Dir/node<i>.
	Dir string
	// Replicas is the cluster size (default 3).
	Replicas int
	// Apps are the controller app factories every incarnation runs.
	Apps []func() controller.App
	// CommitMode picks async or wait-for-quorum journal commits.
	CommitMode CommitMode
	// LeaseTTL is the leadership lease duration (default 150ms), renewed
	// for an unsuspected leader; a takeover never waits for it to lapse.
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal/monitor cadence (default LeaseTTL/3).
	HeartbeatEvery time.Duration
	// QuorumTimeout bounds a quorum wait before the write degrades to a
	// journal error (absorbed by NetLog's JournalErrors counter —
	// availability over durability, matching journalAppend's contract).
	QuorumTimeout time.Duration
	// CheckpointEvery, CheckpointDelta, EventTimeout pass to core.Config.
	CheckpointEvery int
	CheckpointDelta int
	EventTimeout    time.Duration
	// WAL tunes the durable logs on every node (NoSync speeds tests).
	WAL durable.Options
	// Metrics receives the cluster-level instruments (nil = private
	// registry). Each Stack incarnation always gets its own private
	// registry — re-registering stack metrics across failovers would
	// trip the strict duplicate gate.
	Metrics *metrics.Registry
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
	// AutopsyDir persists stack autopsies (including the failover one).
	AutopsyDir string
	// ApplierDelay artificially delays each applied frame on followers —
	// the follower-lag chaos hook.
	ApplierDelay time.Duration
	// Clock overrides the lease clock (nil = time.Now).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 150 * time.Millisecond
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = opts.LeaseTTL / 3
	}
	if opts.QuorumTimeout <= 0 {
		opts.QuorumTimeout = 2 * time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return opts
}

// pipePair is a follower's pre-established (slave) connection to one
// switch: ctrl is the controller end a promoted stack adopts, sw the
// end registered with the switch.
type pipePair struct {
	ctrl *openflow.Conn
	sw   *openflow.Conn
}

// node is one replica's bookkeeping. alive, applier and shipper change
// under Cluster.mu.
type node struct {
	name  string
	dir   string
	alive bool // a member: false once deposed or its promotion failed
	// pipes holds this node's standby switch connections while it is a
	// follower (consumed on promotion).
	pipes map[uint64]pipePair
	// applier receives the leader's WAL stream while a follower.
	applier *Applier
	// shipper is the *leader's* shipper serving this follower.
	shipper *Shipper
}

// Cluster runs Options.Replicas control-plane replicas over one
// simulated network: a single live core.Stack on the lease holder,
// warm shadow WALs plus standby switch connections everywhere else.
type Cluster struct {
	opts  Options
	lease *LeaseStore
	net   *netsim.Network

	mu          sync.Mutex
	nodes       []*node
	leader      *node
	epoch       uint64 // the leader's lease epoch; only its log's acks count
	stack       *core.Stack
	state       *durable.State
	masterConns []*openflow.Conn // leader's switch conns (closed on kill)
	acked       map[string]uint64
	ackWake     chan struct{} // non-nil while a quorum wait sleeps; closed by the next ack or Close
	failTL      *flightrec.Timeline
	lastMTTR    time.Duration
	oldStack    *core.Stack    // fenced, still-running deposed leader
	oldState    *durable.State // its durable state (closed on Close)
	closed      bool

	elections      metrics.Counter
	failovers      metrics.Counter
	quorumTimeouts metrics.Counter
	quorumWaitSec  *metrics.Histogram
	failoverSec    *metrics.Histogram

	wake        chan struct{} // a replication stream ended: the monitor looks now
	stopMonitor chan struct{}
	monitorWG   sync.WaitGroup
}

// New builds (but does not start) a cluster.
func New(opts Options) *Cluster {
	o := opts.withDefaults()
	c := &Cluster{
		opts:        o,
		lease:       NewLeaseStore(o.Clock),
		acked:       make(map[string]uint64),
		wake:        make(chan struct{}, 1),
		stopMonitor: make(chan struct{}),
	}
	reg := o.Metrics
	reg.RegisterCounter("legosdn_replica_elections_total",
		"Leadership changes won via the lease store.", &c.elections)
	reg.RegisterCounter("legosdn_replica_failovers_total",
		"Completed leader failovers (promotion finished).", &c.failovers)
	reg.RegisterCounter("legosdn_replica_quorum_timeouts_total",
		"Journal writes that gave up waiting for follower acks.", &c.quorumTimeouts)
	c.quorumWaitSec = reg.Histogram("legosdn_replica_quorum_wait_seconds",
		"Time a journaled operation waited for follower acks (timeouts included).", nil)
	c.failoverSec = reg.Histogram("legosdn_replica_failover_seconds",
		"Leader-death to dispatch-resumed latency.", nil)
	reg.RegisterGaugeFunc("legosdn_replica_replication_lag_records",
		"Leader journal records not yet acked by the slowest live follower.",
		func() float64 { return float64(c.ReplicationLag()) })
	reg.RegisterGaugeFunc("legosdn_replica_alive",
		"Replicas currently alive (leader included).",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			n := 0
			for _, nd := range c.nodes {
				if nd.alive {
					n++
				}
			}
			return float64(n)
		})
	return c
}

func (c *Cluster) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Start opens every replica's state directory, elects node0, connects
// the leader as master and every follower as a slave on each switch,
// starts WAL shipping, and launches the failure monitor.
func (c *Cluster) Start(n *netsim.Network) error {
	lease, ok := c.lease.TryAcquire("node0", c.opts.LeaseTTL)
	if !ok {
		return fmt.Errorf("replica: initial lease acquisition failed")
	}
	c.elections.Inc()
	c.mu.Lock()
	c.net = n
	for i := 0; i < c.opts.Replicas; i++ {
		name := fmt.Sprintf("node%d", i)
		c.nodes = append(c.nodes, &node{
			name:  name,
			dir:   filepath.Join(c.opts.Dir, name),
			alive: true,
			pipes: make(map[uint64]pipePair),
		})
	}
	leader := c.nodes[0]
	c.leader, c.epoch = leader, lease.Epoch
	c.mu.Unlock()

	// Followers park a slave connection on every switch now, so a later
	// promotion only flips roles — no re-dialing during failover. The
	// switch-side pump blocks writing its Hello into the synchronous
	// pipe until the promoted controller attaches a reader.
	for _, f := range c.followersOf(leader) {
		for _, sw := range n.Switches() {
			ctrl, swSide := openflow.Pipe()
			if err := sw.AttachSlave(swSide); err != nil {
				return err
			}
			f.pipes[sw.DPID] = pipePair{ctrl: ctrl, sw: swSide}
		}
	}

	st, err := durable.OpenState(leader.dir, 0, c.opts.WAL)
	if err != nil {
		return fmt.Errorf("replica: opening leader state: %w", err)
	}
	if err := c.startReplication(leader, st, lease.Epoch); err != nil {
		st.Close()
		return err
	}

	stack, err := c.buildStack(st, lease.Epoch)
	if err != nil {
		return err
	}
	conns := make([]*openflow.Conn, 0, len(n.Switches()))
	for _, sw := range n.Switches() {
		ctrl, swSide := openflow.Pipe()
		if err := sw.Attach(swSide); err != nil {
			return err
		}
		conns = append(conns, ctrl)
	}
	if err := stack.ConnectConns(conns); err != nil {
		return err
	}

	c.mu.Lock()
	c.stack, c.state, c.masterConns = stack, st, conns
	c.mu.Unlock()

	c.monitorWG.Add(1)
	go c.monitor()
	c.logf("replica: %s leading %d-replica cluster (commit=%s, ttl=%v)",
		leader.name, c.opts.Replicas, c.opts.CommitMode, c.opts.LeaseTTL)
	return nil
}

// followersOf lists live nodes other than lead.
func (c *Cluster) followersOf(lead *node) []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*node
	for _, nd := range c.nodes {
		if nd != lead && nd.alive {
			out = append(out, nd)
		}
	}
	return out
}

// startReplication wires a shipper→applier pair from the given leader
// state to every live follower, replacing whatever sessions they had
// (Close ends a stream unreported: no suspicion), and resets the ack
// table for the leader's epoch.
func (c *Cluster) startReplication(lead *node, st *durable.State, epoch uint64) error {
	c.mu.Lock()
	c.acked = make(map[string]uint64)
	c.mu.Unlock()
	c.stopShippers()
	for _, f := range c.followersOf(lead) {
		if f.applier != nil { // a session with an earlier leader
			f.applier.Close()
		}
		shipConn, applyConn := net.Pipe()
		a, err := NewApplier(f.dir, applyConn, c.opts.WAL, c.opts.ApplierDelay, c.streamEnded)
		if err != nil {
			shipConn.Close()
			return fmt.Errorf("replica: starting applier on %s: %w", f.name, err)
		}
		name := f.name
		sh := NewShipper(shipConn, st.Journal.WAL(), st.Checkpoints.WAL(),
			func(pos uint64) { c.noteAck(epoch, name, pos) })
		c.mu.Lock()
		f.applier, f.shipper = a, sh
		c.mu.Unlock()
		sh.Run()
	}
	return nil
}

// stopShippers stops the leader's shippers, ending every follower's
// stream.
func (c *Cluster) stopShippers() {
	c.mu.Lock()
	var shippers []*Shipper
	for _, nd := range c.nodes {
		if nd.shipper != nil {
			shippers = append(shippers, nd.shipper)
			nd.shipper = nil
		}
	}
	c.mu.Unlock()
	for _, s := range shippers {
		s.Stop()
	}
}

// noteAck records that follower name holds epoch's journal through pos
// and wakes whoever sleeps in waitQuorum; a deposed epoch's are dropped.
func (c *Cluster) noteAck(epoch uint64, name string, pos uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch == c.epoch && pos > c.acked[name] {
		c.acked[name] = pos
		if c.ackWake != nil {
			close(c.ackWake)
			c.ackWake = nil
		}
	}
}

// streamEnded is every applier's report that its leader's stream ended:
// the monitor recounts now rather than on its next tick.
func (c *Cluster) streamEnded() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// buildStack assembles a core.Stack over st for the leader of epoch.
// Every incarnation gets a private metrics registry (strict duplicate
// gate) and heartbeat crash detection off — the cluster monitor owns
// liveness here.
func (c *Cluster) buildStack(st *durable.State, epoch uint64) (*core.Stack, error) {
	cfg := core.Config{
		Mode:             core.ModeLegoSDN,
		CheckpointEvery:  c.opts.CheckpointEvery,
		CheckpointDelta:  c.opts.CheckpointDelta,
		EventTimeout:     c.opts.EventTimeout,
		HeartbeatTimeout: -1,
		Durable:          st,
		AutopsyDir:       c.opts.AutopsyDir,
		Logf:             c.opts.Logf,
	}
	if c.opts.CommitMode == CommitQuorum {
		cfg.Journal = &quorumJournal{NetLogJournal: st.Journal, c: c, epoch: epoch}
	}
	stack := core.NewStack(cfg)
	for _, app := range c.opts.Apps {
		if err := stack.AddApp(app); err != nil {
			stack.Close()
			return nil, err
		}
	}
	return stack, nil
}

// suspectedLocked reports whether the leader must be replaced: too few
// live followers still receive its stream for it to commit, whether it
// died or was cut off, or its own promotion failed.
func (c *Cluster) suspectedLocked() bool {
	if !c.leader.alive {
		return true
	}
	receiving := 0
	for _, nd := range c.nodes {
		if nd.alive && nd != c.leader && nd.applier != nil && !nd.applier.Ended() {
			receiving++
		}
	}
	return receiving < c.opts.Replicas/2 // the follower acks a quorum write needs
}

// monitor renews the lease of a leader nobody suspects and replaces a
// suspected one: the best-replicated follower takes epoch+1 by
// compare-and-swap and is promoted. It looks every HeartbeatEvery, and
// at once when a stream ends.
func (c *Cluster) monitor() {
	defer c.monitorWG.Done()
	t := time.NewTicker(c.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case <-t.C:
		case <-c.wake:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		lead, epoch := c.leader, c.epoch
		if !c.suspectedLocked() {
			c.mu.Unlock()
			c.lease.TryAcquire(lead.name, c.opts.LeaseTTL)
			continue
		}
		cand := c.bestCandidateLocked()
		if cand == nil {
			c.mu.Unlock()
			continue
		}
		if c.failTL == nil { // no fault was injected: detection starts the clock
			c.failTL = flightrec.NewTimeline(nil)
		}
		tl := c.failTL
		c.mu.Unlock()

		tl.Enter(flightrec.PhaseElection)
		lease, ok := c.lease.TakeOver(cand.name, c.opts.LeaseTTL, epoch)
		if !ok {
			continue
		}
		c.elections.Inc()
		c.mu.Lock()
		lead.alive = false
		c.leader, c.epoch = cand, lease.Epoch
		prevStack, prevState := c.retireLocked() // if it still serves: fenced, kept until Close
		c.mu.Unlock()
		closeStack(prevStack, prevState)
		c.logf("replica: %s took over epoch %d from %s, promoting", cand.name, lease.Epoch, lead.name)
		if err := c.promote(cand, lease.Epoch, tl); err != nil {
			c.logf("replica: promotion of %s failed: %v", cand.name, err)
			c.mu.Lock()
			cand.alive = false
			c.mu.Unlock()
		}
	}
}

// bestCandidateLocked picks the live follower with the highest received
// NetLog position (ties break toward the lowest name) — the replica
// whose shadow journal is most complete.
func (c *Cluster) bestCandidateLocked() *node {
	var best *node
	var bestPos uint64
	for _, nd := range c.nodes {
		if !nd.alive || nd == c.leader || nd.applier == nil {
			continue
		}
		pos := nd.applier.ReceivedPos(streamNetlog)
		if best == nil || pos > bestPos {
			best, bestPos = nd, pos
		}
	}
	return best
}

// promote turns cand, the holder of epoch, into the serving leader:
// drain its replication backlog, open its shadow state as the live
// durable state, restart shipping to the remaining followers, flip its
// switch connections to master, and run the stack's durable recovery
// (presumed-abort inverse replay) before resuming dispatch.
func (c *Cluster) promote(cand *node, epoch uint64, tl *flightrec.Timeline) error {
	tl.Enter(flightrec.PhaseCatchUp)
	var backlog int
	if a := cand.applier; a != nil {
		backlog = a.Backlog()
		if err := a.Drain(10 * time.Second); err != nil {
			c.logf("replica: catch-up on %s: %v", cand.name, err)
		}
		a.Close()
	}

	tl.Enter(flightrec.PhaseRestore)
	st, err := durable.OpenState(cand.dir, 0, c.opts.WAL)
	if err != nil {
		return fmt.Errorf("replica: opening promoted state: %w", err)
	}
	orphans := len(st.Journal.Orphans())
	// Shipping must restart before the stack connects: under quorum
	// commit the very first post-failover transaction blocks on
	// follower acks. A fresh WAL handle restarts at generation 0, so
	// the shippers open with a reset and re-ship the whole (compacted)
	// log; the appliers wipe and rebuild — idempotent by design.
	if err := c.startReplication(cand, st, epoch); err != nil {
		st.Close()
		return err
	}
	stack, err := c.buildStack(st, epoch)
	if err != nil {
		st.Close()
		return err
	}

	tl.Enter(flightrec.PhaseRollback)
	// Master role transfer: promote this node's standby connection on
	// every switch (demoting the old master, which fences a partitioned
	// ex-leader with EPERM), then let the stack adopt them. ConnectConns
	// handshakes and replays orphaned-transaction inverses — those sends
	// need the master role, hence the ordering.
	conns := make([]*openflow.Conn, 0, len(cand.pipes))
	for _, sw := range c.net.Switches() {
		pp, ok := cand.pipes[sw.DPID]
		if !ok {
			continue
		}
		if err := sw.PromoteSlave(pp.sw); err != nil {
			stack.Close()
			return fmt.Errorf("replica: promoting slave on dpid %d: %w", sw.DPID, err)
		}
		conns = append(conns, pp.ctrl)
	}
	cand.pipes = make(map[uint64]pipePair)
	if err := stack.ConnectConns(conns); err != nil {
		stack.Close()
		return fmt.Errorf("replica: adopting switch connections: %w", err)
	}

	tl.Enter(flightrec.PhaseResume)
	tl.Finish()
	mttr := tl.Total()
	c.mu.Lock()
	c.stack, c.state, c.masterConns = stack, st, conns
	cand.applier = nil
	c.failTL = nil
	c.lastMTTR = mttr
	c.mu.Unlock()
	c.failovers.Inc()
	c.failoverSec.Observe(mttr.Seconds())

	stack.Autopsies.Add(&flightrec.Autopsy{
		App:     "controller",
		Trigger: "failover",
		Class:   "leader-death",
		Culprit: "leader's replication streams ended",
		Outcome: "Recovered",
		Notes: []string{
			fmt.Sprintf("%s promoted (epoch %d)", cand.name, epoch),
			fmt.Sprintf("catch-up drained %d queued frame(s)", backlog),
			fmt.Sprintf("journal held %d orphaned txn(s)", orphans),
		},
		Timeline:        tl.Phases(),
		RecoverySeconds: mttr.Seconds(),
	})
	c.logf("replica: %s serving after %v (backlog %d, orphans %d)",
		cand.name, mttr, backlog, orphans)
	return nil
}

// KillLeader crash-stops the serving leader — the SIGKILL the chaos
// scenarios model: replication stops, its switch connections drop, and
// its stack and WALs close without resolving open transactions.
func (c *Cluster) KillLeader() error { return c.cutLeader("killed", false) }

// IsolateLeader partitions the serving leader: replication stops, but
// its stack runs on with its switch connections until the successor's
// PromoteSlave demotes them and its state-changing messages bounce with
// EPERM (fencing). OldLeaderStack returns the fenced stack.
func (c *Cluster) IsolateLeader() error { return c.cutLeader("partitioned away", true) }

// cutLeader injects a leader fault, which starts the failover timeline:
// it stops the shippers, ending every follower's stream, and takes the
// stack out of service, kept running if keep and closed if not.
func (c *Cluster) cutLeader(what string, keep bool) error {
	c.mu.Lock()
	if c.stack == nil {
		c.mu.Unlock()
		return fmt.Errorf("replica: no serving leader to cut off")
	}
	name := c.leader.name
	stack, st, conns := c.stack, c.state, c.masterConns
	if keep { // it runs on; an earlier retiree is closed instead
		stack, st = c.retireLocked()
		conns = nil
	}
	c.stack, c.state, c.masterConns = nil, nil, nil
	c.failTL = flightrec.NewTimeline(nil)
	c.mu.Unlock()

	c.stopShippers()
	for _, conn := range conns {
		conn.Close()
	}
	closeStack(stack, st) // closing a WAL writes nothing: open txns stay orphaned
	c.logf("replica: %s %s", name, what)
	return nil
}

// retireLocked takes the serving stack, if any, out of service without
// stopping it: a deposed leader runs on, fenced by the switches, until
// Close. What an earlier retirement kept is returned for the caller to
// close outside c.mu.
func (c *Cluster) retireLocked() (*core.Stack, *durable.State) {
	if c.stack == nil {
		return nil, nil
	}
	prevStack, prevState := c.oldStack, c.oldState
	c.oldStack, c.oldState = c.stack, c.state
	c.stack, c.state, c.masterConns = nil, nil, nil
	return prevStack, prevState
}

func closeStack(stack *core.Stack, st *durable.State) {
	if stack != nil {
		stack.Close()
	}
	if st != nil {
		st.Close()
	}
}

// WaitLeader blocks until a leader other than old serves, returning
// its stack.
func (c *Cluster) WaitLeader(old string, timeout time.Duration) (*core.Stack, error) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.leader != nil && c.leader.name != old && c.stack != nil {
			s := c.stack
			c.mu.Unlock()
			return s, nil
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replica: no successor to %s within %v", old, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stack returns the current leader's stack (nil during failover).
func (c *Cluster) Stack() *core.Stack {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stack
}

// State returns the current leader's durable state (nil during
// failover).
func (c *Cluster) State() *durable.State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// OldLeaderStack returns the fenced ex-leader after IsolateLeader.
func (c *Cluster) OldLeaderStack() *core.Stack {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.oldStack
}

// LeaderName returns the current lease holder's node name.
func (c *Cluster) LeaderName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader == nil {
		return ""
	}
	return c.leader.name
}

// Elections counts leadership acquisitions (initial election included).
func (c *Cluster) Elections() uint64 { return c.elections.Load() }

// Failovers counts completed promotions.
func (c *Cluster) Failovers() uint64 { return c.failovers.Load() }

// LastMTTR reports the most recent failover's fault-to-resume time.
func (c *Cluster) LastMTTR() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMTTR
}

// QuorumTimeouts counts the serving leader's journal writes that gave up
// waiting for follower acks; a deposed leader's never count.
func (c *Cluster) QuorumTimeouts() uint64 { return c.quorumTimeouts.Load() }

// ReplicationLag reports leader journal records not yet acked by the
// slowest live follower (0 when no leader or no followers).
func (c *Cluster) ReplicationLag() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil || c.leader == nil {
		return 0
	}
	end := c.state.Journal.WAL().EndPos()
	lag := uint64(0)
	for _, nd := range c.nodes {
		if !nd.alive || nd == c.leader {
			continue
		}
		acked := c.acked[nd.name]
		if end > acked && end-acked > lag {
			lag = end - acked
		}
	}
	return lag
}

// waitQuorum blocks until a majority of replicas hold epoch's journal
// prefix through pos, QuorumTimeout passes, or the cluster closes. It
// sleeps on the ack callback's wake-up, not on a poll interval. No ack
// counts once epoch is deposed: its wait can only fail.
func (c *Cluster) waitQuorum(epoch, pos uint64) error {
	need := c.opts.Replicas / 2 // follower acks beyond the leader's own vote
	if need <= 0 {
		return nil
	}
	defer c.quorumWaitSec.ObserveSince(time.Now())
	var timeout *time.Timer
	for {
		c.mu.Lock()
		got := 0
		for _, nd := range c.nodes {
			if epoch == c.epoch && nd.alive && nd != c.leader && c.acked[nd.name] >= pos {
				got++
			}
		}
		if got >= need {
			c.mu.Unlock()
			return nil
		}
		if c.closed {
			// Close stops replication: no ack is coming, and giving up
			// here is not a quorum timeout.
			c.mu.Unlock()
			return fmt.Errorf("replica: cluster closed before journal pos %d reached a quorum", pos)
		}
		// Taken under the lock the count was made under: an ack that
		// arrives from here on closes this very channel.
		if c.ackWake == nil {
			c.ackWake = make(chan struct{})
		}
		wake := c.ackWake
		c.mu.Unlock()
		if timeout == nil {
			timeout = time.NewTimer(c.opts.QuorumTimeout)
			defer timeout.Stop()
		}
		select {
		case <-wake:
		case <-timeout.C:
			c.mu.Lock()
			if epoch == c.epoch {
				c.quorumTimeouts.Inc()
			}
			c.mu.Unlock()
			return fmt.Errorf("replica: quorum wait for epoch %d journal pos %d timed out (%d/%d follower acks)",
				epoch, pos, got, need)
		}
	}
}

// quorumJournal wraps the durable NetLog journal so a journaled
// operation blocks until a majority of replicas hold it — the one
// record that must be on a quorum before its FlowMod leaves. Begin
// writes nothing, and closing records are shipped like everything else
// but not waited for: the next operation's wait covers them (same log,
// earlier position), and a successor that never received the last one
// presumes that transaction aborted and undoes it. Errors surface to
// NetLog's journalAppend, which absorbs them into the JournalErrors
// counter — a quorum loss degrades durability, never availability.
type quorumJournal struct {
	*durable.NetLogJournal
	c     *Cluster
	epoch uint64 // the lease epoch of the leader this journal serves
}

func (q *quorumJournal) TxnOp(id uint64, op netlog.JournalOp) error {
	if err := q.NetLogJournal.TxnOp(id, op); err != nil {
		return err
	}
	return q.c.waitQuorum(q.epoch, q.WAL().EndPos())
}

// Close stops the monitor (after a promotion in flight), the replication
// sessions and every stack, a fenced ex-leader's included. A quorum wait
// in progress ends at once instead of sleeping out QuorumTimeout.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if c.ackWake != nil {
		close(c.ackWake)
		c.ackWake = nil
	}
	c.mu.Unlock()

	close(c.stopMonitor)
	c.monitorWG.Wait()
	c.mu.Lock()
	stack, st, oldStack, oldState := c.stack, c.state, c.oldStack, c.oldState
	c.stack, c.state, c.oldStack, c.oldState = nil, nil, nil, nil
	c.mu.Unlock()
	c.stopShippers()
	for _, nd := range c.nodes {
		if nd.applier != nil {
			nd.applier.Close()
		}
	}
	closeStack(stack, st)
	closeStack(oldStack, oldState)
}
