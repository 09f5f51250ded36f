package experiments

import (
	"fmt"
	"time"

	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/crashpad"
	"legosdn/internal/diversity"
	"legosdn/internal/faultinject"
	"legosdn/internal/invariant"
	"legosdn/internal/mcs"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/resources"
	"legosdn/internal/workload"
)

// pktInWithFrame wraps a frame into a PacketIn event.
func pktInWithFrame(seq uint64, f *netsim.Frame) controller.Event {
	raw := f.Marshal()
	return controller.Event{
		Seq: seq, Kind: controller.EventPacketIn, DPID: 1,
		Message: &openflow.PacketIn{
			BufferID: openflow.BufferIDNone,
			TotalLen: uint16(len(raw)),
			InPort:   1,
			Data:     raw,
		},
	}
}

// poisonFrame builds a frame that trips the poison-port apps.
func poisonFrame(sport uint16) *netsim.Frame {
	return &netsim.Frame{
		DlSrc:   netsim.HostMAC(1),
		DlDst:   netsim.HostMAC(2),
		DlType:  netsim.EtherTypeIPv4,
		NwProto: netsim.IPProtoTCP,
		NwSrc:   netsim.HostIP(1),
		NwDst:   netsim.HostIP(2),
		TpSrc:   sport,
		TpDst:   6666,
	}
}

// ClaimCheckpointSweep measures §5's checkpoint-frequency trade-off:
// checkpoint every Nth event (replaying the suffix at recovery) versus
// every event.
func ClaimCheckpointSweep(ns []int, events int) Table {
	t := Table{
		ID:    "C8",
		Title: "Checkpoint cadence sweep: steady-state overhead vs recovery work (§5)",
		Columns: []string{"checkpoint every", "events", "mean per event",
			"checkpoints taken", "bytes stored", "replayed at recovery", "recovery"},
		Notes: []string{
			"the app carries a growing MAC table, so snapshots have real weight",
			"larger N amortizes snapshot cost but pays event replay at recovery — the §5 trade",
		},
	}
	for _, n := range ns {
		store := checkpoint.NewStore(0)
		cp := crashpad.New(crashpad.Options{Store: store, CheckpointEvery: n})
		app := newPoisonLearningSwitch(6666)()
		ctx := &captureCtx{}
		trace := workload.PacketInEvents(events, 1, 32, 99)

		start := time.Now()
		for _, ev := range trace {
			cp.RunEvent(app, ctx, ev)
		}
		steady := time.Since(start)

		// Align the crash to the worst point in the cadence — just
		// before the next checkpoint — so recovery replays the maximal
		// N-1 event suffix.
		extra := (n - 1 - events%n + n) % n
		for i := 0; i < extra; i++ {
			cp.RunEvent(app, ctx, trace[i%len(trace)])
		}
		recStart := time.Now()
		cp.RunEvent(app, ctx, pktInWithFrame(uint64(events+extra+1), poisonFrame(40000)))
		recovery := time.Since(recStart)

		t.AddRow(fmt.Sprint(n), fmt.Sprint(events),
			us(steady/time.Duration(events)),
			fmt.Sprint(store.Saves), fmt.Sprint(store.Bytes),
			fmt.Sprint(cp.ReplayedEvents.Load()), us(recovery))
	}
	return t
}

// ClaimCloneSwitchover exercises §5's non-deterministic-bug strategy: a
// hot clone processes the same events in the shadow and is promoted
// when the primary trips a transient bug.
func ClaimCloneSwitchover(events int) Table {
	t := Table{
		ID:    "C9",
		Title: "Clone switchover for non-deterministic bugs (§5)",
		Columns: []string{"configuration", "events", "crash masked",
			"switchovers", "events lost", "service continued"},
		Notes: []string{
			"the bug fires once (transient); the clone, running the same state, is unaffected — the §5 argument",
		},
	}
	mk := func() (*diversity.HotStandby, *transientBugApp) {
		primary := &transientBugApp{inner: newRegistryApp("learning-switch"), crashAt: uint64(events / 2)}
		clone := &transientBugApp{inner: newRegistryApp("learning-switch")} // no bug
		return diversity.NewHotStandby("learning-switch", primary, clone), primary
	}
	hs, _ := mk()
	ctx := &captureCtx{}
	trace := workload.PacketInEvents(events, 1, 8, 31)
	lost := 0
	for _, ev := range trace {
		if err := hs.HandleEvent(ctx, ev); err != nil {
			lost++
		}
	}
	after := len(ctx.msgs) > 0
	t.AddRow("primary + hot clone", fmt.Sprint(events),
		yesNo(hs.Switchovers == 1), fmt.Sprint(hs.Switchovers),
		fmt.Sprint(lost), yesNo(after && hs.UsingClone()))

	// Baseline: no clone — the transient bug costs the event.
	solo := &transientBugApp{inner: newRegistryApp("learning-switch"), crashAt: uint64(events / 2)}
	ctx2 := &captureCtx{}
	soloLost := 0
	for _, ev := range trace {
		if crashed := runContainedExp(solo, ctx2, ev); crashed {
			soloLost++
		}
	}
	t.AddRow("primary only", fmt.Sprint(events), yesNo(false), "0",
		fmt.Sprint(soloLost), yesNo(true))
	return t
}

// transientBugApp crashes exactly once, at event seq crashAt.
type transientBugApp struct {
	inner   controller.App
	crashAt uint64
	fired   bool
}

func (a *transientBugApp) Name() string                          { return a.inner.Name() }
func (a *transientBugApp) Subscriptions() []controller.EventKind { return a.inner.Subscriptions() }
func (a *transientBugApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	if a.crashAt != 0 && ev.Seq == a.crashAt && !a.fired {
		a.fired = true
		panic("transient bug")
	}
	return a.inner.HandleEvent(ctx, ev)
}

func runContainedExp(app controller.App, ctx controller.Context, ev controller.Event) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
		}
	}()
	_ = app.HandleEvent(ctx, ev)
	return false
}

// ClaimNVersion exercises §3.4's software diversity: three versions of
// the learning switch, one byzantine, under majority vote.
func ClaimNVersion(events int) Table {
	t := Table{
		ID:    "C10",
		Title: "N-version programming: majority vote masks a wrong version (§3.4)",
		Columns: []string{"versions", "buggy versions", "events",
			"disagreements", "masked", "wrong outputs forwarded"},
	}
	buggy := faultinject.Wrap(newRegistryApp("learning-switch"), faultinject.Bug{
		Severity:     faultinject.ByzantineSev,
		TriggerKind:  controller.EventPacketIn,
		TriggerEvery: 3,
	}, 5)
	voter := diversity.NewVoter("learning-switch",
		newRegistryApp("learning-switch"),
		buggy,
		newRegistryApp("learning-switch"))
	ctx := &captureCtx{}
	trace := workload.PacketInEvents(events, 1, 8, 17)
	for _, ev := range trace {
		_ = voter.HandleEvent(ctx, ev)
	}
	// A forwarded wrong output would be the byzantine 999-priority rule.
	wrong := 0
	for _, m := range ctx.msgs {
		if containsBadRule(m) {
			wrong++
		}
	}
	t.AddRow("3", "1", fmt.Sprint(events),
		fmt.Sprint(voter.Disagreements), fmt.Sprint(voter.Masked), fmt.Sprint(wrong))
	return t
}

// containsBadRule detects the injected byzantine rule in an encoded
// message signature (priority 999 = 0x03e7 at the flow-mod priority
// offset; cheap textual probe is fine for the harness).
func containsBadRule(sig string) bool {
	return len(sig) > 0 && stringsContains(sig, "03e7")
}

func stringsContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// ClaimMCS exercises §5's multi-event failure handling: a crash induced
// by an event pair is minimized to exactly that pair, and the right
// rollback checkpoint is selected.
func ClaimMCS(traceLen int) Table {
	t := Table{
		ID:    "C11",
		Title: "Minimal causal sequences for multi-event failures (§5, STS)",
		Columns: []string{"trace length", "minimal length", "probes",
			"cache hits", "rollback checkpoint seq"},
		Notes: []string{"the bug fires after seeing packets to two specific ports, anywhere in the trace"},
	}
	trace := workload.PacketInEvents(traceLen, 1, 8, 23)
	// Poison: the pair of events at 1/3 and 2/3 of the trace.
	aSeq := uint64(traceLen / 3)
	bSeq := uint64(2 * traceLen / 3)
	newApp := func() controller.App {
		return &pairBugApp{a: aSeq, b: bSeq}
	}
	fails := mcs.ReplayFails(newApp, &captureCtx{})
	minimal, stats := mcs.Minimize(trace, fails)

	store := checkpoint.NewStore(0)
	for seq := uint64(0); seq <= uint64(traceLen); seq += 8 {
		store.Put("pair-bug", seq, []byte("img"))
	}
	cpPick := mcs.PickCheckpoint(store, "pair-bug", minimal)
	pick := "none"
	if cpPick != nil {
		pick = fmt.Sprint(cpPick.Seq)
	}
	t.AddRow(fmt.Sprint(stats.OriginalLen), fmt.Sprint(stats.MinimalLen),
		fmt.Sprint(stats.Probes), fmt.Sprint(stats.CacheHits), pick)
	return t
}

// pairBugApp crashes once it has seen both trigger seqs.
type pairBugApp struct {
	a, b         uint64
	seenA, seenB bool
}

func (p *pairBugApp) Name() string                          { return "pair-bug" }
func (p *pairBugApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }
func (p *pairBugApp) HandleEvent(_ controller.Context, ev controller.Event) error {
	if ev.Seq == p.a {
		p.seenA = true
	}
	if ev.Seq == p.b {
		p.seenB = true
	}
	if p.seenA && p.seenB {
		panic("cumulative failure")
	}
	return nil
}

// ClaimResourceLimits exercises §3.4's per-app limits: a rogue app that
// burns dispatch time is throttled, restoring a victim app's
// throughput.
func ClaimResourceLimits(events int) Table {
	t := Table{
		ID:    "C12",
		Title: "Per-app resource limits containing a rogue app (§3.4)",
		Columns: []string{"configuration", "events offered", "rogue handled",
			"victim handled", "dispatch time"},
		Notes: []string{"the rogue burns 200us per event; the limiter caps it at 50 events/s"},
	}
	run := func(limited bool) (rogueN, victimN uint64, dur time.Duration) {
		rogue := &slowApp{name: "rogue", delay: 200 * time.Microsecond}
		victim := &slowApp{name: "victim"}
		var runner controller.AppRunner = passRunner{}
		if limited {
			lim := resources.NewLimiter(passRunner{}, nil)
			lim.SetLimits("rogue", resources.Limits{EventsPerSecond: 50, Burst: 10})
			runner = lim
		}
		ctx := &captureCtx{}
		trace := workload.PacketInEvents(events, 1, 8, 3)
		start := time.Now()
		for _, ev := range trace {
			runner.RunEvent(rogue, ctx, ev)
			runner.RunEvent(victim, ctx, ev)
		}
		return rogue.handled, victim.handled, time.Since(start)
	}
	for _, limited := range []bool{false, true} {
		name := "no limits"
		if limited {
			name = "rogue rate-limited"
		}
		r, v, d := run(limited)
		t.AddRow(name, fmt.Sprint(events), fmt.Sprint(r), fmt.Sprint(v),
			d.Round(time.Millisecond).String())
	}
	return t
}

type passRunner struct{}

func (passRunner) RunEvent(app controller.App, ctx controller.Context, ev controller.Event) *controller.AppFailure {
	_ = app.HandleEvent(ctx, ev)
	return nil
}

type slowApp struct {
	name    string
	delay   time.Duration
	handled uint64
}

func (a *slowApp) Name() string                          { return a.name }
func (a *slowApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }
func (a *slowApp) HandleEvent(controller.Context, controller.Event) error {
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	a.handled++
	return nil
}

// ClaimInvariantEscalation exercises §5's "No-Compromise" escalation: a
// byzantine black-hole trips the invariant checker, and the operator's
// shutdown hook fails the network closed.
func ClaimInvariantEscalation() Table {
	t := Table{
		ID:    "C13",
		Title: "No-Compromise invariant escalation: byzantine rule -> network shutdown (§5)",
		Columns: []string{"no-compromise set", "violation detected",
			"bad rule rolled back", "network shut down"},
	}
	for _, noCompromise := range []bool{false, true} {
		n := netsim.Single(2, nil)
		suite := invariant.NewSuite(n)
		shutdown := false
		stack := core.NewStack(core.Config{
			Mode: core.ModeLegoSDN,
			Checker: suite.CrashPadChecker(func(invariant.Violation) bool {
				return noCompromise
			}),
			OnNetworkShutdown: func([]crashpad.Violation) {
				shutdown = true
				for _, sw := range n.Switches() {
					n.SetSwitchDown(sw.DPID, true)
				}
			},
		})
		stack.AddApp(func() controller.App {
			return faultinject.Wrap(newRegistryApp("learning-switch"), faultinject.Bug{
				Severity:    faultinject.ByzantineSev,
				TriggerKind: controller.EventPacketIn,
			}, 1)
		})
		connect(stack, n)
		sendTCP(n, "h1", "h2", 1, 80)
		drainQuiesce(stack.Controller, 30*time.Millisecond)

		detected := stack.CrashPad.ByzantineSeen.Load() > 0
		rolledBack := true
		for _, e := range n.Switch(1).Table().Entries() {
			if e.Priority == 999 {
				rolledBack = false
			}
		}
		t.AddRow(yesNo(noCompromise), yesNo(detected), yesNo(rolledBack), yesNo(shutdown))
		stack.Close()
	}
	return t
}
