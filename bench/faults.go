package main

import (
	"errors"
	"fmt"
	"time"

	"legosdn/internal/core"
	"legosdn/internal/openflow"
)

const (
	// faultTimeout bounds the wait for service to resume after a fault.
	faultTimeout = 20 * time.Second
	// failoverCadence spaces the events injected around the loss of the
	// leader. It is open loop on purpose: requests due while no leader
	// serves are refused and counted. It is slower than one replicated
	// event takes, so the control plane is idle between events and an
	// untraced run's fault can land in such a gap (see loseLeader).
	failoverCadence = 5 * time.Millisecond
	// cadenceBeforeFault events on the cadence precede the fault,
	// eventsAfterFailover served by the successor end the measurement.
	cadenceBeforeFault  = 4
	eventsAfterFailover = 5
	// lostAfter is how long after the failover an event injected around
	// it may still arrive before it counts as lost.
	lostAfter = 2 * time.Second
	// orphanPriority marks the rule of the transaction left open when the
	// leader dies; no app uses it.
	orphanPriority = 250
	// outageChunk is the most outages a report lists one by one.
	outageChunk = 250
)

// faultResult is what the fault phase measured.
type faultResult struct {
	// underLoad makes every failover cut the leader off while an event is
	// in its quorum wait (traced runs; see loseLeader).
	underLoad bool

	injected int       // faults injected so far
	outages  []float64 // ms from the fault to the first frame delivered afterwards
	normal   segStats  // the ordinary events between faults

	// Crash-Pad's counters, summed over the deployments when their
	// faults were done, and the deployments whose app was not serving then.
	crashes, recovered, replayed uint64
	notServing                   int

	mttr           []float64 // ms, replica.Cluster.LastMTTR per failover
	lost, refused  int       // events lost in flight / refused while no leader served
	elections      uint64
	quorumTimeouts uint64
	// Failovers that broke a guarantee, by guarantee.
	orphansSurvived, leadersWrong int
}

// fill moves the phase's numbers into the report.
func (fr *faultResult) fill(rep *report) {
	rep.EndToEnd["outage_p25_ms"] = metric{pctF(fr.outages, 25), "ms"}
	rep.Info["bench.outage_p50_ms"] = metric{median(fr.outages), "ms"}
	if len(fr.outages) <= outageChunk {
		rep.Series["outage_ms"] = fr.outages
	} else {
		// `isolated`'s thousands of respawns: one lower quartile per chunk.
		for k := 0; k+outageChunk <= len(fr.outages); k += outageChunk {
			rep.Series["outage_p25_ms_per_chunk"] = append(rep.Series["outage_p25_ms_per_chunk"],
				pctF(fr.outages[k:k+outageChunk], 25))
		}
	}
	rep.Info["bench.faults"] = metric{float64(len(fr.outages)), "count"}
	rep.Info["bench.fault_phase_events_failed"] = metric{float64(fr.normal.failed), "count"}
	perCrash := 0.0
	if fr.crashes > 0 {
		perCrash = float64(fr.replayed) / float64(fr.crashes)
	}
	rep.Info["crashpad.replayed_events_per_crash"] = metric{perCrash, "count"}
	perFailover := func(n int) float64 {
		if len(fr.mttr) == 0 {
			return 0
		}
		return float64(n) / float64(len(fr.mttr))
	}
	rep.Info["replica.failover_ms"] = metric{median(fr.mttr), "ms"}
	rep.Info["replica.elections"] = metric{float64(fr.elections), "count"}
	rep.Info["replica.quorum_timeouts"] = metric{float64(fr.quorumTimeouts), "count"}
	rep.Info["replica.events_lost_per_failover"] = metric{perFailover(fr.lost), "count"}
	rep.Info["replica.events_refused_per_failover"] = metric{perFailover(fr.refused), "count"}
}

// batch injects n faults into g's deployment (a failover gets a cluster
// of its own), with ordinary events between them, and times how long the
// data plane goes unserved after each.
func (fr *faultResult) batch(g *generator, n int) error {
	for i := 0; i < n; i++ {
		fr.injected++
		if g.e.w.replicated {
			if err := fr.failover(g); err != nil {
				return fmt.Errorf("failover %d: %w", fr.injected, err)
			}
			continue
		}
		if err := g.runCount(1, g.e.w.between, &fr.normal); err != nil {
			return err
		}
		outage, err := g.crashApp()
		if err != nil {
			return fmt.Errorf("fault %d: %w", fr.injected, err)
		}
		fr.outages = append(fr.outages, float64(outage)/1e6)
	}
	if !g.e.w.replicated {
		stack, app := g.e.stack, g.e.w.apps[0]
		if stack.Controller.AppDisabled(app) || !stack.Proxy(app).StubUp() {
			fr.notServing++
		}
		cp := stack.CrashPad
		fr.crashes += cp.CrashesSeen.Load()
		fr.recovered += cp.Recoveries.Load()
		fr.replayed += cp.ReplayedEvents.Load()
	}
	return nil
}

// respawns stands in for the fault phase on `isolated`, which has no
// recovery to exercise: the controller quarantines a crashed app for
// good. What AppVisor alone offers an operator is a crash report and
// Proxy.Respawn, so that is what is timed, n times, on a proxy of its
// own outside the running stack: poisoned event in -> first ordinary
// event served by the respawned stub.
func (fr *faultResult) respawns(n int) error {
	b, err := newBareProxy()
	if err != nil {
		return err
	}
	defer b.close()
	for i := 0; i < n; i++ {
		fr.injected++
		outage, _, err := b.crashAndRespawn()
		if err != nil {
			return fmt.Errorf("respawn %d: %w", fr.injected, err)
		}
		fr.outages = append(fr.outages, float64(outage)/1e6)
	}
	return nil
}

// verify adds the output checks of the faults injected so far to rep.
func (fr *faultResult) verify(g *generator, rep *report) {
	n := fr.injected
	rep.check("fault-phase events delivered", fr.normal.failed == 0,
		"%d of %d ordinary events failed", fr.normal.failed, fr.normal.attempted)
	if g.e.w.replicated {
		rep.check("orphaned transactions rolled back", fr.orphansSurvived == 0,
			"after %d of %d failovers a rule of the open transaction survived", fr.orphansSurvived, n)
		rep.check("exactly one new leader per fault", fr.leadersWrong == 0,
			"%d of %d faults did not end in exactly one election and one failover", fr.leadersWrong, n)
		if !fr.underLoad {
			rep.check("no quorum timeouts", fr.quorumTimeouts == 0,
				"%d journal writes gave up on the quorum", fr.quorumTimeouts)
		}
		return
	}
	if g.e.w.mode == core.ModeIsolated {
		return
	}
	rep.check("app serving after faults", fr.notServing == 0,
		"on %d deployments the app was quarantined or its stub down after the faults", fr.notServing)
	rep.check("every crash recovered", fr.crashes >= uint64(n) && fr.recovered == fr.crashes,
		"%d faults, Crash-Pad saw %d crashes and recovered %d", n, fr.crashes, fr.recovered)
	if fr.crashes > uint64(n) {
		// A proxy that hears nothing from its stub for 500 ms declares it
		// dead: a machine that stops the process for that long crashes apps
		// nobody poisoned. Crash-Pad recovers them like any other; the run
		// only says that it happened.
		rep.Flags = append(rep.Flags, fmt.Sprintf(
			"%d crashes beyond the %d injected: the machine stalled past AppVisor's heartbeat timeout", fr.crashes-uint64(n), n))
	}
}

// firstFrameAfter injects one ordinary event and returns when its frame
// arrived.
func (g *generator) firstFrameAfter() (int64, error) {
	s, err := g.inject(g.e.sched.nextPacketIn(), 0, 0)
	if err != nil {
		return 0, err
	}
	defer s.state.Store(slotFree)
	select {
	case c := <-g.e.trk.done:
		if c.id != s.id {
			return 0, fmt.Errorf("frame of event %d delivered while waiting for event %d", c.id, s.id)
		}
		return c.t, nil
	case <-time.After(faultTimeout):
		return 0, fmt.Errorf("service did not resume within %v", faultTimeout)
	}
}

// crashApp crashes the learning switch with a poisoned PacketIn, on
// which the app panics inside its stub, and returns the time from the
// poison's Inject to the frame of the first ordinary event served
// afterwards. That event is injected right behind the poison and queues
// while Crash-Pad rolls back, respawns, restores and re-baselines.
func (g *generator) crashApp() (int64, error) {
	t0 := nowNs()
	victim, err := g.inject(g.e.sched.nextPacketIn(), 0, poisonTOS)
	if err != nil {
		return 0, err
	}
	defer victim.state.Store(slotFree)
	at, err := g.firstFrameAfter()
	return at - t0, err
}

// failover measures the loss of the leader on a fresh cluster of its own.
func (fr *faultResult) failover(g *generator) error {
	e, err := newEnv(g.e.w, g.e.sched, nil)
	if err != nil {
		return err
	}
	defer e.close()
	fg := &generator{e: e, nextID: g.nextID}
	defer func() { g.nextID = fg.nextID }()
	if err := fg.runCount(1, e.w.between, &fr.normal); err != nil {
		return err
	}
	// The last frame left before its event's transaction committed, and
	// Crash-Pad clears NetLog's active slot when it commits: staged any
	// earlier, the open transaction could lose the slot to that commit and
	// its rule would reach the switch unjournaled.
	if !e.drained() {
		return errors.New("the events before the fault never finished")
	}
	if err := stageOrphan(e.cluster.Stack()); err != nil {
		return fmt.Errorf("staging the open transaction: %w", err)
	}

	trk := e.trk
	inflight := map[uint32]bool{}
	var faultAt, faultDone int64
	completedBefore, servedAfter := 0, 0
	// handle books one completion.
	handle := func(c completion) {
		s := &trk.ring[c.id%ringSize]
		if faultAt == 0 {
			completedBefore++
		} else if s.t0 > faultDone {
			if servedAfter == 0 {
				fr.outages = append(fr.outages, float64(c.t-faultAt)/1e6)
			}
			servedAfter++
		}
		delete(inflight, c.id)
		s.state.Store(slotFree)
	}
	start := time.Now()
	for k := 0; servedAfter < eventsAfterFailover; k++ {
		due := start.Add(time.Duration(k) * failoverCadence)
		if time.Since(start) > faultTimeout {
			return errors.New("no successor served within the timeout")
		}
		for wait := time.Until(due); wait > 0; wait = time.Until(due) {
			select {
			case c := <-trk.done:
				handle(c)
				if !fr.underLoad && faultAt == 0 && completedBefore >= cadenceBeforeFault && len(inflight) == 0 {
					if faultAt, err = loseLeader(e, true); err != nil {
						return err
					}
					faultDone = nowNs()
				}
			case <-time.After(wait):
			}
		}
		s, err := fg.inject(e.sched.nextPacketIn(), 0, 0)
		if err != nil {
			fr.refused++
			continue
		}
		inflight[s.id] = true
		if fr.underLoad && faultAt == 0 && k == cadenceBeforeFault {
			if faultAt, err = loseLeader(e, false); err != nil {
				return err
			}
			faultDone = nowNs()
		}
	}
	// Whatever is still outstanding gets a moment to show up.
	for deadline := time.After(lostAfter); len(inflight) > 0; {
		select {
		case c := <-trk.done:
			handle(c)
		case <-deadline:
			fr.lost += len(inflight)
			inflight = nil
		}
	}

	cl := e.cluster
	fr.mttr = append(fr.mttr, float64(cl.LastMTTR())/1e6)
	fr.elections += cl.Elections() - 1 // the first election is the cluster's start
	survivors := 0
	for sw := 0; sw < numSwitches; sw++ {
		for _, ent := range e.fab.net.Switch(dpidOf(sw)).Table().Entries() {
			if ent.Priority == orphanPriority {
				survivors++
			}
		}
	}
	if survivors > 0 || cl.State() == nil || cl.State().RecoveredTxns() < 1 {
		fr.orphansSurvived++
	}
	// Closing waits for whatever the cut-off leader still holds in a
	// quorum wait, so a timeout there is counted.
	e.close()
	fr.quorumTimeouts += cl.QuorumTimeouts()
	if cl.Elections() != 2 || cl.Failovers() != 1 {
		fr.leadersWrong++
	}
	return nil
}

// stageOrphan opens a NetLog transaction on the leader, sends one rule
// through it and leaves it open: the journal (replicated by quorum)
// holds a begin and an op without a commit, which the successor must
// presume aborted and undo. Crash-Pad's per-event transactions take the
// active slot over afterwards; this one just never closes.
func stageOrphan(stack *core.Stack) error {
	tx := stack.NetLog.Begin()
	stack.NetLog.SetActive(tx)
	defer stack.NetLog.SetActive(nil)
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
	m.DlType, m.NwProto, m.TpDst = 0x0800, 6, 9900
	if err := stack.Controller.SendFlowMod(dpidOf(0), &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: orphanPriority,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: hostPort(0)}},
	}); err != nil {
		return err
	}
	return stack.Controller.Barrier(dpidOf(0))
}

// loseLeader cuts the leader off (replication stops, its lease is no
// longer renewed, Cluster.Stack turns nil) and returns when the fault
// began.
//
// It is Cluster.IsolateLeader, not KillLeader: KillLeader closes the
// leader's switch connections and then stops its controller, and the
// two race inside controller.swHandle.close (a check-then-close of
// closedCh from the pump's onDisconnect and from Controller.Stop), which
// panics with "close of closed channel" about once in a hundred kills
// and takes the run down. Detection, election, catch-up, rollback of the
// open transaction and promotion are the same path for both faults.
//
// An untraced run lets the leader finish every event injected so far
// first (idle), so the fault lands in the gap after them and no event is
// caught in the leader it cuts off. A traced run cuts the leader off with
// the event just injected in flight. If that event was still in a quorum
// wait it is lost: the wait ends when the successor's followers
// acknowledge past its position, and the rule the old leader then sends
// bounces off switches that have demoted it. That is where events lost
// per failover are measured instead of being 0 by construction; the run
// waits lostAfter before it calls an event lost, which the three
// failovers of a traced run can afford and the twelve of an untraced
// one cannot.
func loseLeader(e *env, idle bool) (int64, error) {
	if idle && !e.drained() {
		return 0, errors.New("leader never went idle before the fault")
	}
	at := nowNs()
	return at, e.cluster.IsolateLeader()
}
