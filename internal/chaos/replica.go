package chaos

import (
	"fmt"
	"os"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/durable"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/replica"
)

// failoverMode selects which control-plane fault the HA scenario
// injects once the mid-transaction workload is staged.
type failoverMode int

const (
	// failoverKill SIGKILLs the leader: switch connections drop, WALs
	// close unresolved, replication stops.
	failoverKill failoverMode = iota
	// failoverPartition isolates the leader: it keeps running and keeps
	// its switch connections, but replication to the followers stops —
	// the successor must fence it via switch role demotion.
	failoverPartition
	// failoverLag is failoverKill with slow followers: each replicated
	// frame takes extra time to apply, so promotion must drain a real
	// catch-up backlog before serving.
	failoverLag
)

// runHAKillLeader, runHAPartitionLeader and runHAFollowerLag are the
// Custom entry points registered in the library.
func runHAKillLeader(sc Scenario, seed uint64, reg *metrics.Registry) *Report {
	return runHAFailover(sc, seed, failoverKill)
}

func runHAPartitionLeader(sc Scenario, seed uint64, reg *metrics.Registry) *Report {
	return runHAFailover(sc, seed, failoverPartition)
}

func runHAFollowerLag(sc Scenario, seed uint64, reg *metrics.Registry) *Report {
	return runHAFailover(sc, seed, failoverLag)
}

// runHAFailover is the replicated-control-plane chaos scenario: a
// 3-replica cluster runs the recorder workload, the leader dies (or is
// partitioned) with a journaled transaction neither committed nor
// aborted, and a follower must take over, finish recovery from its
// replicated journal, and resume dispatch — with every single-stack
// invariant still holding on the other side of the failover.
//
// The scenarios are not Deterministic: leases, election timing and
// replication are wall-clock concurrent by nature. Invariants, not
// byte-for-byte reports, are the acceptance bar (like the netsim
// scenarios).
func runHAFailover(sc Scenario, seed uint64, mode failoverMode) *Report {
	sched := NewSchedule(seed)
	rep := &Report{Scenario: sc.Name, Seed: seed, Fired: map[string]int{}}
	add := func(name string, err error) {
		rep.Invariants = append(rep.Invariants, InvariantResult{Name: name, Err: err})
	}
	fail := func(err error) *Report {
		add("setup", err)
		rep.ScheduleFingerprint = sched.Fingerprint()
		return rep
	}

	stateDir, err := os.MkdirTemp("", "legosdn-chaos-ha-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(stateDir)

	n := netsim.Single(2, nil)
	log := NewEventLog()
	const appName = "rec0"

	opts := replica.Options{
		Dir:             stateDir,
		Replicas:        3,
		CommitMode:      replica.CommitQuorum,
		LeaseTTL:        80 * time.Millisecond,
		HeartbeatEvery:  20 * time.Millisecond,
		CheckpointEvery: sc.CheckpointEvery,
		EventTimeout:    sc.EventTimeout,
		WAL:             durable.Options{NoSync: true},
		AutopsyDir:      sc.AutopsyDir,
		Apps: []func() controller.App{
			func() controller.App { return newRecorder(appName, log) },
		},
	}
	switch mode {
	case failoverPartition:
		// The partition scenario exercises the async commit path: the
		// quorum wait is a leader-side behavior, and a partitioned
		// leader under quorum would only stall on timeouts.
		opts.CommitMode = replica.CommitAsync
	case failoverLag:
		opts.ApplierDelay = 5 * time.Millisecond
	}
	cluster := replica.New(opts)
	if err := cluster.Start(n); err != nil {
		return fail(fmt.Errorf("cluster start: %w", err))
	}
	defer cluster.Close()

	inject := func(stack *core.Stack, seq int) error {
		target := stack.Controller.Processed.Load() + 1
		err := stack.Controller.Inject(controller.Event{
			Kind: controller.EventPacketIn,
			DPID: 1,
			Message: &openflow.PacketIn{
				BufferID: openflow.BufferIDNone,
				InPort:   hostPort,
				Reason:   openflow.PacketInReasonNoMatch,
			},
		})
		if err != nil {
			return fmt.Errorf("inject %d: %w", seq, err)
		}
		rep.EventsInjected++
		waitProcessed(stack.Controller, target, 30*time.Second)
		return nil
	}

	// ---- phase 1: quorum-committed workload on the initial leader ----
	stackA := cluster.Stack()
	for i := 1; i <= sc.Events; i++ {
		if err := inject(stackA, i); err != nil {
			return fail(err)
		}
	}
	quiesce(stackA.Controller)
	preTxn := n.Switch(1).Table().Fingerprint()

	// The crash victim: a journaled transaction that installs three
	// rules and never reaches commit or abort.
	tx := stackA.NetLog.Begin()
	stackA.NetLog.SetActive(tx)
	for i := 0; i < 3; i++ {
		if err := stackA.Controller.SendFlowMod(1, pendingRule(i)); err != nil {
			return fail(fmt.Errorf("mid-txn flow mod %d: %w", i, err))
		}
	}
	stackA.NetLog.SetActive(nil)
	if err := stackA.Controller.Barrier(1); err != nil {
		return fail(err)
	}
	if fp := n.Switch(1).Table().Fingerprint(); fp == preTxn {
		return fail(fmt.Errorf("interrupted transaction had no effect to roll back"))
	}

	// ---- phase 2: the control-plane fault ----
	oldLeader := cluster.LeaderName()
	switch mode {
	case failoverPartition:
		// Async commit ships in the background; this scenario tests
		// fencing and failover, not async-mode tail loss, so let the
		// followers catch up before cutting them off. (The kill
		// scenario needs no such grace: quorum commit already
		// guarantees the followers hold every journaled op.)
		waitReplicationDrained(cluster, 10*time.Second)
		err = cluster.IsolateLeader()
	default:
		err = cluster.KillLeader()
	}
	if err != nil {
		return fail(err)
	}

	// ---- phase 3: a follower takes over ----
	stackB, err := cluster.WaitLeader(oldLeader, 30*time.Second)
	if err != nil {
		return fail(fmt.Errorf("failover: %w", err))
	}
	rep.Fired["ha/elections"] = int(cluster.Elections())
	rep.Fired["ha/failovers"] = int(cluster.Failovers())
	rep.Fired["ha/failover-ms"] = int(cluster.LastMTTR().Milliseconds())
	rep.Fired["ha/recovered-txns"] = int(cluster.State().RecoveredTxns())
	rep.Fired["ha/recovered-mods"] = int(cluster.State().RecoveredMods())

	var fenceErr error
	if mode == failoverPartition {
		// The fenced ex-leader still runs and still believes it leads:
		// its write must bounce off the switch's slave-role check, and the
		// switch must count the bounce.
		if old := cluster.OldLeaderStack(); old == nil {
			fenceErr = fmt.Errorf("the isolated leader's stack was not retained")
		} else {
			before := n.Switch(1).FencedWrites.Load()
			_ = old.Controller.SendFlowMod(1, pendingRule(7))
			_ = old.Controller.Barrier(1)
			if got := n.Switch(1).FencedWrites.Load() - before; got != 1 {
				fenceErr = fmt.Errorf("the ex-leader sent 1 write after the takeover; the switch fenced %d", got)
			}
		}
	}

	// New events must flow through the successor.
	for i := 1; i <= sc.Events/2; i++ {
		if err := inject(stackB, sc.Events+i); err != nil {
			return fail(err)
		}
	}
	quiesce(stackB.Controller)

	// ---- invariants ----
	var electErr error
	if cluster.Failovers() == 0 {
		electErr = fmt.Errorf("no failover completed")
	} else if got := cluster.LeaderName(); got == oldLeader || got == "" {
		electErr = fmt.Errorf("leadership never moved off %s", oldLeader)
	}
	add("failover-completed", electErr)

	var orphanErr error
	if got := len(cluster.State().Journal.Orphans()); got != 0 {
		orphanErr = fmt.Errorf("%d transactions still orphaned after failover", got)
	} else if cluster.State().RecoveredTxns() == 0 {
		orphanErr = fmt.Errorf("the interrupted transaction was never rolled back")
	}
	add("no-orphaned-txns", orphanErr)

	// None of the interrupted transaction's rules survived (for the
	// partition mode this doubles as the fencing check: pendingRule(7)
	// from the fenced ex-leader must have bounced too).
	var residueErr error
	for _, e := range n.Switch(1).Table().Entries() {
		if e.Priority == pendingPriority {
			residueErr = fmt.Errorf("rolled-back or fenced rule installed: tp_dst=%d", e.Match.TpDst)
			break
		}
	}
	add("rollback-complete", residueErr)
	if mode == failoverPartition {
		add("writes-fenced", fenceErr)
	}

	var shadowErr error
	if got, want := stackB.NetLog.ShadowFingerprint(1), n.Switch(1).Table().Fingerprint(); got != want {
		shadowErr = fmt.Errorf("successor shadow %q != switch %q", got, want)
	}
	add("shadow-consistency", shadowErr)

	var restoredErr error
	if stackB.Store.Latest(appName) == nil {
		restoredErr = fmt.Errorf("app checkpoint history lost across failover")
	}
	add("checkpoints-replicated", restoredErr)

	add("fifo/"+appName, CheckFIFO(log.Delivered(appName)))

	var aliveErr error
	if stackB.Controller.Crashed() {
		aliveErr = fmt.Errorf("successor controller crashed")
	}
	add("controller-alive", aliveErr)

	rep.ScheduleFingerprint = sched.Fingerprint()
	attachAutopsies(rep, stackB)
	return rep
}

// waitReplicationDrained blocks until every live follower has acked the
// leader's full journal (or the timeout passes).
func waitReplicationDrained(cluster *replica.Cluster, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for cluster.ReplicationLag() > 0 {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
