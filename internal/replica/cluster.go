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
	// LeaseTTL is the leadership lease duration (default 150ms); a dead
	// leader is replaceable one TTL after its last renewal.
	LeaseTTL time.Duration
	// HeartbeatEvery is the renewal/monitor cadence (default LeaseTTL/3).
	HeartbeatEvery time.Duration
	// QuorumTimeout bounds a quorum wait before the write degrades to a
	// journal error (absorbed by NetLog's JournalErrors counter —
	// availability over durability, matching journalAppend's contract).
	QuorumTimeout time.Duration
	// CheckpointEvery / EventTimeout pass through to core.Config.
	CheckpointEvery int
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

// node is one replica's bookkeeping.
type node struct {
	name  string
	dir   string
	alive bool
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
	stack       *core.Stack
	state       *durable.State
	leaderAlive bool
	masterConns []*openflow.Conn // leader's switch conns (closed on kill)
	acked       map[string]uint64
	ackWake     chan struct{} // non-nil while a quorum wait sleeps; closed by the next ack
	failTL      *flightrec.Timeline
	electing    bool
	lastMTTR    time.Duration
	oldStack    *core.Stack    // fenced, still-running leader after IsolateLeader
	oldState    *durable.State // its durable state (closed on Close)
	closed      bool

	elections      metrics.Counter
	failovers      metrics.Counter
	quorumTimeouts metrics.Counter
	quorumWaitSec  *metrics.Histogram
	failoverSec    *metrics.Histogram

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
	c.mu.Unlock()

	if _, ok := c.lease.TryAcquire(leader.name, c.opts.LeaseTTL); !ok {
		return fmt.Errorf("replica: initial lease acquisition failed")
	}
	c.elections.Inc()

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
	if err := c.startReplication(leader, st); err != nil {
		st.Close()
		return err
	}

	stack, err := c.buildStack(st)
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
	c.leader = leader
	c.stack = stack
	c.state = st
	c.masterConns = conns
	c.leaderAlive = true
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
// state to every live follower, resetting the ack table.
func (c *Cluster) startReplication(lead *node, st *durable.State) error {
	c.mu.Lock()
	c.acked = make(map[string]uint64)
	c.mu.Unlock()
	for _, f := range c.followersOf(lead) {
		if f.applier != nil { // stale session to a previous leader
			f.applier.Close()
			f.applier = nil
		}
		shipConn, applyConn := net.Pipe()
		a, err := NewApplier(f.dir, applyConn, c.opts.WAL, c.opts.ApplierDelay)
		if err != nil {
			shipConn.Close()
			return fmt.Errorf("replica: starting applier on %s: %w", f.name, err)
		}
		f.applier = a
		name := f.name
		f.shipper = NewShipper(shipConn, st.Journal.WAL(), st.Checkpoints.WAL(),
			func(stream byte, pos uint64) {
				if stream == streamNetlog {
					c.noteAck(name, pos)
				}
			})
		f.shipper.Run()
	}
	return nil
}

// noteAck records that follower name holds the journal through pos and
// wakes whoever sleeps in waitQuorum.
func (c *Cluster) noteAck(name string, pos uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if pos > c.acked[name] {
		c.acked[name] = pos
		if c.ackWake != nil {
			close(c.ackWake)
			c.ackWake = nil
		}
	}
}

// buildStack assembles a core.Stack over st. Every incarnation gets a
// private metrics registry (strict duplicate gate) and heartbeat crash
// detection off — the cluster monitor owns liveness here.
func (c *Cluster) buildStack(st *durable.State) (*core.Stack, error) {
	cfg := core.Config{
		Mode:             core.ModeLegoSDN,
		CheckpointEvery:  c.opts.CheckpointEvery,
		EventTimeout:     c.opts.EventTimeout,
		HeartbeatTimeout: -1,
		Durable:          st,
		AutopsyDir:       c.opts.AutopsyDir,
		Logf:             c.opts.Logf,
	}
	if c.opts.CommitMode == CommitQuorum {
		cfg.Journal = &quorumJournal{NetLogJournal: st.Journal, c: c}
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

// monitor renews the leader's lease while it lives and runs elections
// when it does not.
func (c *Cluster) monitor() {
	defer c.monitorWG.Done()
	t := time.NewTicker(c.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopMonitor:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.leaderAlive && c.leader != nil {
			name := c.leader.name
			c.mu.Unlock()
			c.lease.TryAcquire(name, c.opts.LeaseTTL)
			continue
		}
		tl := c.failTL
		entered := c.electing
		c.mu.Unlock()

		cand := c.bestCandidate()
		if cand == nil {
			continue
		}
		if !entered {
			tl.Enter(flightrec.PhaseElection)
			c.mu.Lock()
			c.electing = true
			c.mu.Unlock()
		}
		// The dead leader's lease must expire before this succeeds; the
		// wait is the detection cost the election phase accounts for.
		if _, ok := c.lease.TryAcquire(cand.name, c.opts.LeaseTTL); !ok {
			continue
		}
		c.elections.Inc()
		c.logf("replica: %s won election (epoch %d), promoting",
			cand.name, c.lease.Current().Epoch)
		if err := c.promote(cand, tl); err != nil {
			c.logf("replica: promotion of %s failed: %v", cand.name, err)
			c.lease.Release(cand.name)
			c.mu.Lock()
			cand.alive = false
			c.mu.Unlock()
		}
		c.mu.Lock()
		c.electing = false
		c.mu.Unlock()
	}
}

// bestCandidate picks the live follower with the highest received
// NetLog position (ties break toward the lowest name) — the replica
// whose shadow journal is most complete.
func (c *Cluster) bestCandidate() *node {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// promote turns cand into the leader: drain its replication backlog,
// open its shadow state as the live durable state, restart shipping to
// the remaining followers, flip its switch connections to master, and
// run the stack's durable recovery (presumed-abort inverse replay)
// before resuming dispatch.
func (c *Cluster) promote(cand *node, tl *flightrec.Timeline) error {
	tl.Enter(flightrec.PhaseCatchUp)
	var backlog int
	if cand.applier != nil {
		backlog = cand.applier.Backlog()
		if err := cand.applier.Drain(10 * time.Second); err != nil {
			c.logf("replica: catch-up on %s: %v", cand.name, err)
		}
		cand.applier.Close()
		cand.applier = nil
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
	if err := c.startReplication(cand, st); err != nil {
		st.Close()
		return err
	}
	c.mu.Lock()
	c.leader = cand // quorum waits must not count cand as a follower
	c.mu.Unlock()
	stack, err := c.buildStack(st)
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
	c.mu.Lock()
	c.stack = stack
	c.state = st
	c.masterConns = conns
	c.leaderAlive = true
	c.mu.Unlock()
	c.failovers.Inc()
	tl.Finish()
	mttr := tl.Total()
	c.failoverSec.Observe(mttr.Seconds())
	c.mu.Lock()
	c.lastMTTR = mttr
	c.mu.Unlock()

	stack.Autopsies.Add(&flightrec.Autopsy{
		App:     "controller",
		Trigger: "failover",
		Class:   "leader-death",
		Culprit: "leadership lease expired",
		Outcome: "Recovered",
		Notes: []string{
			fmt.Sprintf("%s promoted (epoch %d)", cand.name, c.lease.Current().Epoch),
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

// KillLeader crash-stops the current leader: its switch connections
// drop, replication to followers stops, and its WALs close without
// resolving open transactions — the SIGKILL the chaos scenarios model.
// The monitor detects the silence and elects a successor.
func (c *Cluster) KillLeader() error {
	c.mu.Lock()
	if !c.leaderAlive || c.leader == nil {
		c.mu.Unlock()
		return fmt.Errorf("replica: no live leader to kill")
	}
	dead := c.leader
	stack, st := c.stack, c.state
	conns := c.masterConns
	followers := c.followersSnapshotLocked(dead)
	c.mu.Unlock()

	// Tear the leader down while leaderAlive is still true: the monitor
	// cannot start a promotion (which rewires follower sessions) until
	// the flag flips below, so these node mutations are race-free.
	for _, f := range followers {
		if f.shipper != nil {
			f.shipper.Stop()
			f.shipper.Close()
			f.shipper = nil
		}
	}
	for _, conn := range conns {
		conn.Close()
	}
	if stack != nil {
		stack.Close()
	}
	if st != nil {
		st.Close() // closing the WAL writes nothing: open txns stay orphaned
	}

	c.mu.Lock()
	dead.alive = false
	c.leaderAlive = false
	c.stack, c.state, c.masterConns = nil, nil, nil
	c.failTL = flightrec.NewTimeline(nil) // detect phase starts now
	c.mu.Unlock()
	c.logf("replica: %s killed", dead.name)
	return nil
}

// IsolateLeader partitions the current leader instead of killing it:
// replication stops and the cluster stops renewing its lease, but its
// stack keeps running with its switch connections — until the elected
// successor's PromoteSlave demotes it to slave on every switch, after
// which its state-changing messages bounce with EPERM (fencing). The
// fenced stack is retained for inspection via OldLeaderStack.
func (c *Cluster) IsolateLeader() error {
	c.mu.Lock()
	if !c.leaderAlive || c.leader == nil {
		c.mu.Unlock()
		return fmt.Errorf("replica: no live leader to isolate")
	}
	old := c.leader
	followers := c.followersSnapshotLocked(old)
	c.mu.Unlock()

	// Cut replication first (same race-free window as KillLeader): the
	// monitor cannot promote until leaderAlive flips below.
	for _, f := range followers {
		if f.shipper != nil {
			f.shipper.Stop()
			f.shipper.Close()
			f.shipper = nil
		}
	}

	c.mu.Lock()
	old.alive = false
	c.leaderAlive = false
	c.failTL = flightrec.NewTimeline(nil)
	c.oldStack, c.oldState = c.stack, c.state
	c.stack, c.state, c.masterConns = nil, nil, nil
	c.mu.Unlock()
	c.logf("replica: %s partitioned away", old.name)
	return nil
}

// followersSnapshotLocked is followersOf for callers already holding
// c.mu (the dead/isolated node is excluded via its alive flag).
func (c *Cluster) followersSnapshotLocked(lead *node) []*node {
	var out []*node
	for _, nd := range c.nodes {
		if nd != lead {
			out = append(out, nd)
		}
	}
	return out
}

// WaitLeader blocks until a leader other than old serves, returning
// its stack.
func (c *Cluster) WaitLeader(old string, timeout time.Duration) (*core.Stack, error) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		if c.leaderAlive && c.leader != nil && c.leader.name != old && c.stack != nil {
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

// Lease exposes the election substrate (tests, demos).
func (c *Cluster) Lease() *LeaseStore { return c.lease }

// Elections counts leadership acquisitions (initial election included).
func (c *Cluster) Elections() uint64 { return c.elections.Load() }

// Failovers counts completed promotions.
func (c *Cluster) Failovers() uint64 { return c.failovers.Load() }

// LastMTTR reports the most recent failover's detect-to-resume time.
func (c *Cluster) LastMTTR() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastMTTR
}

// QuorumTimeouts counts journal writes that degraded to async after the
// quorum wait expired.
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

// waitQuorum blocks until a majority of replicas hold the journal
// prefix through pos (the leader's own WAL write already counts as one
// vote), or QuorumTimeout passes. It sleeps on the ack callback's
// wake-up, not on a poll interval.
func (c *Cluster) waitQuorum(pos uint64) error {
	need := c.opts.Replicas/2 + 1 - 1 // follower acks beyond the leader
	if need <= 0 {
		return nil
	}
	defer c.quorumWaitSec.ObserveSince(time.Now())
	var timeout *time.Timer
	for {
		c.mu.Lock()
		got := 0
		for _, nd := range c.nodes {
			if nd.alive && nd != c.leader && c.acked[nd.name] >= pos {
				got++
			}
		}
		if got >= need {
			c.mu.Unlock()
			return nil
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
			c.quorumTimeouts.Inc()
			return fmt.Errorf("replica: quorum wait for journal pos %d timed out (%d/%d follower acks)",
				pos, got, need)
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
	c *Cluster
}

func (q *quorumJournal) TxnOp(id uint64, op netlog.JournalOp) error {
	if err := q.NetLogJournal.TxnOp(id, op); err != nil {
		return err
	}
	return q.c.waitQuorum(q.WAL().EndPos())
}

// Close stops the monitor, the replication sessions and whatever stack
// is serving (the fenced ex-leader included).
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	stack, st := c.stack, c.state
	oldStack, oldState := c.oldStack, c.oldState
	c.stack, c.state, c.oldStack, c.oldState = nil, nil, nil, nil
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()

	close(c.stopMonitor)
	c.monitorWG.Wait()
	for _, nd := range nodes {
		if nd.shipper != nil {
			nd.shipper.Stop()
			nd.shipper.Close()
			nd.shipper = nil
		}
		if nd.applier != nil {
			nd.applier.Close()
			nd.applier = nil
		}
	}
	if stack != nil {
		stack.Close()
	}
	if st != nil {
		st.Close()
	}
	if oldStack != nil {
		oldStack.Close()
	}
	if oldState != nil {
		oldState.Close()
	}
}
