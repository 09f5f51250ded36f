package main

import (
	"errors"
	"fmt"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/appvisor"
	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/durable"
	"legosdn/internal/netlog"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// perLayerMetrics is the fixed list a traced run prints, in the order
// of BENCHMARK.json. A layer that does no work in a workload reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"controller.inject_to_handler_us", "us"},
	{"controller.fanout_span_us", "us"},
	{"controller.send_to_delivery_us", "us"},
	{"appvisor.rpc_rtt_us", "us"},
	{"appvisor.snapshot_rtt_us", "us"},
	{"appvisor.send_flowmod_us", "us"},
	{"appvisor.send_hop_us", "us"},
	{"appvisor.respawn_ms", "ms"},
	{"apps.handler_self_us", "us"},
	{"crashpad.pre_handler_us", "us"},
	{"crashpad.replayed_events_per_crash", "count"},
	{"checkpoint.snapshot_us", "us"},
	{"checkpoint.put_us", "us"},
	{"checkpoint.restore_us", "us"},
	{"checkpoint.bytes_per_event", "B"},
	{"netlog.flowmod_to_hook_us", "us"},
	{"netlog.flowmod_us", "us"},
	{"netlog.txn_us", "us"},
	{"netlog.rollback_us", "us"},
	{"netlog.ops_per_txn", "count"},
	{"netlog.empty_txn_share", "%"},
	{"durable.journal_call_us", "us"},
	{"durable.journal_calls_per_event", "count"},
	{"durable.fsyncs_per_event", "count"},
	{"durable.wal_bytes_per_event", "B"},
	{"durable.append_us", "us"},
	{"durable.append_nosync_us", "us"},
	{"durable.recover_ms", "ms"},
	{"replica.quorum_wait_us", "us"},
	{"replica.lag_records_max", "count"},
	{"replica.quorum_timeouts", "count"},
	{"replica.failover_ms", "ms"},
	{"replica.elections", "count"},
	{"replica.events_lost_per_failover", "count"},
	{"replica.events_refused_per_failover", "count"},
	{"openflow.codec_us", "us"},
	{"netsim.flowmod_apply_us", "us"},
	{"flowtable.lookup_ns", "ns"},
	{"bench.latency_p50_us", "us"},
	{"bench.latency_p99_us", "us"},
	{"bench.latency_samples", "count"},
	{"bench.throughput_p50_eps", "1/s"},
	{"bench.throughput_mean_eps", "1/s"},
	{"bench.outage_p50_ms", "ms"},
	{"bench.cpu_us_per_event", "us"},
	{"bench.drift_pct", "%"},
	{"bench.ref_speed", "1/s"},
	{"bench.ref_spread_pct", "%"},
	{"bench.round_spread_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.selftime_sum_pct", "%"},
	{"bench.heap_peak_mb", "MB"},
	{"bench.heap_growth_mb", "MB"},
}

// eventTrace gathers the spans of one traced PacketIn. Times are nowNs.
type eventTrace struct {
	inject, delivered    int64
	snapStart, snapEnd   int64 // first app's Snapshot
	firstEnter, lastExit int64 // handlers across apps
	enter                int64 // first app's handler
	fmCall, fmRet        int64
	fmHook               int64
	poCall, poHook       int64
	journal              []int64 // durations of journal calls
}

// pathStats are the medians along Inject -> delivery of one traced run.
type pathStats struct {
	events        int
	injectToEnter float64 // µs, all below
	snapshot      float64
	handlerSelf   float64
	sendFlowMod   float64
	flowModToHook float64
	sendHop       float64
	sendToDeliver float64
	fanoutSpan    float64
	endToEnd      float64
	journalCall   float64
	journalCalls  float64 // per event
}

// analyse reduces spans to pathStats. Only events that took the write
// path (a FlowMod and a PacketOut) and were traced end to end count:
// their intervals telescope, so the parts sum to the whole per event.
func analyse(spans []span) pathStats {
	events := map[uint32]*eventTrace{}
	at := func(id uint32) *eventTrace {
		t := events[id]
		if t == nil {
			t = &eventTrace{}
			events[id] = t
		}
		return t
	}
	for _, s := range spans {
		t := at(s.ev)
		switch s.kind {
		case spEvent:
			t.inject, t.delivered = s.start, s.end
		case spSnapshot:
			if s.app == 0 {
				t.snapStart, t.snapEnd = s.start, s.end
			}
		case spHandler:
			if s.app == 0 {
				t.enter = s.start
			}
			if t.firstEnter == 0 || s.start < t.firstEnter {
				t.firstEnter = s.start
			}
			if s.end > t.lastExit {
				t.lastExit = s.end
			}
		case spFlowMod:
			t.fmCall, t.fmRet = s.start, s.end
		case spPacketOut:
			t.poCall = s.start
		case spHookFlowMod:
			t.fmHook = s.start
		case spHookPacketOut:
			t.poHook = s.start
		case spJournal:
			t.journal = append(t.journal, s.end-s.start)
		}
	}
	var toEnter, snap, self, sendFM, toHook, hop, toDeliver, fanout, e2e, jcall []int64
	jcalls := 0
	for _, t := range events {
		if t.inject == 0 || t.enter == 0 || t.fmCall == 0 || t.fmHook == 0 || t.poCall == 0 || t.poHook == 0 {
			continue
		}
		toEnter = append(toEnter, t.enter-t.inject)
		snap = append(snap, t.snapEnd-t.snapStart)
		self = append(self, (t.fmCall-t.enter)+(t.poCall-t.fmRet))
		sendFM = append(sendFM, t.fmRet-t.fmCall)
		toHook = append(toHook, t.fmHook-t.fmCall)
		hop = append(hop, t.poHook-t.poCall)
		toDeliver = append(toDeliver, t.delivered-t.poHook)
		fanout = append(fanout, t.lastExit-t.firstEnter)
		e2e = append(e2e, t.delivered-t.inject)
		jcall = append(jcall, t.journal...)
		jcalls += len(t.journal)
	}
	us := func(xs []int64) float64 { return pct(xs, 50) / 1e3 }
	ps := pathStats{events: len(e2e), injectToEnter: us(toEnter), snapshot: us(snap), handlerSelf: us(self),
		sendFlowMod: us(sendFM), flowModToHook: us(toHook), sendHop: us(hop), sendToDeliver: us(toDeliver),
		fanoutSpan: us(fanout), endToEnd: us(e2e), journalCall: us(jcall)}
	if ps.events > 0 {
		ps.journalCalls = float64(jcalls) / float64(ps.events)
	}
	return ps
}

// traceMetrics fills the per-layer numbers that come from the traced
// rounds of this run.
func traceMetrics(rep *report, spans []span, rec *recorder, results []roundResult) {
	ps := analyse(spans)
	L := rep.Layers
	L["controller.inject_to_handler_us"] = metric{ps.injectToEnter, "us"}
	L["controller.send_to_delivery_us"] = metric{ps.sendToDeliver, "us"}
	if len(rep.w.apps) > 1 {
		L["controller.fanout_span_us"] = metric{ps.fanoutSpan, "us"}
	}
	L["appvisor.send_flowmod_us"] = metric{ps.sendFlowMod, "us"}
	L["appvisor.send_hop_us"] = metric{ps.sendHop, "us"}
	L["apps.handler_self_us"] = metric{ps.handlerSelf, "us"}
	L["netlog.flowmod_to_hook_us"] = metric{ps.flowModToHook, "us"}
	if rep.w.mode != core.ModeIsolated {
		L["crashpad.pre_handler_us"] = metric{ps.injectToEnter - ps.snapshot, "us"}
		L["checkpoint.snapshot_us"] = metric{ps.snapshot, "us"}
	}
	L["durable.journal_call_us"] = metric{ps.journalCall, "us"}
	L["durable.journal_calls_per_event"] = metric{ps.journalCalls, "count"}
	traced := 0
	for _, s := range spans {
		if s.kind == spEvent {
			traced++
		}
	}
	if traced > 0 {
		L["checkpoint.bytes_per_event"] = metric{float64(rec.snapBytes.Load()) / float64(traced), "B"}
	}
	if ps.endToEnd > 0 {
		sum := ps.injectToEnter + ps.handlerSelf + ps.sendFlowMod + ps.sendHop + ps.sendToDeliver
		L["bench.selftime_sum_pct"] = metric{sum / ps.endToEnd * 100, "%"}
	}
	var plain, tracedLat []int64
	for i, rr := range results {
		if i < tracedFrom && len(results) > 1 {
			plain = append(plain, rr.lat.latencies...)
		} else {
			tracedLat = append(tracedLat, rr.lat.latencies...)
		}
	}
	if p := pct(plain, 50); p > 0 {
		L["bench.trace_overhead_pct"] = metric{(pct(tracedLat, 50) - p) / p * 100, "%"}
	}
}

// microMetrics times direct calls into the layers' public functions,
// for the costs no seam of the running stack exposes on its own. They
// run after the workload, on an otherwise idle process.
func microMetrics(rep *report) error {
	L := rep.Layers
	if err := microAppVisor(L); err != nil {
		return fmt.Errorf("appvisor: %w", err)
	}
	if err := microNetLog(L); err != nil {
		return fmt.Errorf("netlog: %w", err)
	}
	if err := microDurable(L); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	microDataPlane(L)
	return nil
}

// timeEach returns the median duration of n calls of fn.
func timeEach(n int, fn func() error) (time.Duration, error) {
	ds := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, int64(time.Since(start)))
	}
	return time.Duration(pct(ds, 50)), nil
}

func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// noopApp answers every event with nothing: the bare AppVisor round trip.
type noopApp struct{}

func (noopApp) Name() string { return "noop" }
func (noopApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (noopApp) HandleEvent(controller.Context, controller.Event) error { return nil }

// bareProxy is an AppVisor proxy hosting the harness's learning switch
// on a controller with no switch and nothing else around it: the direct
// calls into AppVisor go through it.
type bareProxy struct {
	ctrl       *controller.Controller
	proxy      *appvisor.Proxy
	ev, poison controller.Event
}

// newBareProxy launches the stub and teaches the app the fabric's 64
// MACs. The bare controller has no switch, so the app's flood fails
// after the MAC is learned; that is enough.
func newBareProxy() (*bareProxy, error) {
	fab, err := newFabric(func(int, *netsim.Frame) {})
	if err != nil {
		return nil, err
	}
	b := &bareProxy{ctrl: controller.New(controller.Config{}),
		ev:     fab.packetIn(evSpec{src: 0, dst: 1}, 1, 0),
		poison: fab.packetIn(evSpec{src: 0, dst: 1}, 1, poisonTOS)}
	b.proxy, err = appvisor.NewProxy("learning-switch", b.ctrl,
		appvisor.InProcessFactory(func() controller.App {
			app, _ := newBenchApp(apps.NewLearningSwitch(), 0, true, nil)
			return app
		}, appvisor.StubOptions{}),
		appvisor.ProxyOptions{})
	if err != nil {
		b.ctrl.Stop()
		return nil, err
	}
	for sw := 0; sw < numSwitches; sw++ {
		for h := 0; h < hostsPerSwitch; h++ {
			_ = b.proxy.HandleEvent(b.ctrl, fab.packetIn(evSpec{sw: sw, src: h, dst: (h + 1) % hostsPerSwitch}, 1, 0))
		}
	}
	return b, nil
}

func (b *bareProxy) close() {
	b.proxy.Close()
	b.ctrl.Stop()
}

// crashAndRespawn crashes the app with a poisoned event, respawns its
// stub and has it serve one ordinary event. outage runs from the
// poison's HandleEvent to that event served, respawn from the crash
// report. (A stub killed silently must first be missed by the heartbeat
// monitor; that wait is a timeout, not work.)
func (b *bareProxy) crashAndRespawn() (outage, respawn time.Duration, err error) {
	start := time.Now()
	var crash *appvisor.CrashError
	if err := b.proxy.HandleEvent(b.ctrl, b.poison); !errors.As(err, &crash) {
		return 0, 0, fmt.Errorf("poisoned event returned %v, want a crash report", err)
	}
	reported := time.Now()
	if err := b.proxy.Respawn(); err != nil {
		return 0, 0, err
	}
	_ = b.proxy.HandleEvent(b.ctrl, b.ev) // the app's flood fails: no switch
	return time.Since(start), time.Since(reported), nil
}

func microAppVisor(L map[string]metric) error {
	b, err := newBareProxy()
	if err != nil {
		return err
	}
	defer b.close()
	ctrl, ls := b.ctrl, b.proxy

	noop, err := appvisor.NewProxy("noop", ctrl,
		appvisor.InProcessFactory(func() controller.App { return noopApp{} }, appvisor.StubOptions{}),
		appvisor.ProxyOptions{})
	if err != nil {
		return err
	}
	defer noop.Close()
	d, err := timeEach(3000, func() error { return noop.HandleEvent(ctrl, b.ev) })
	if err != nil {
		return err
	}
	L["appvisor.rpc_rtt_us"] = metric{usOf(d), "us"}

	var image []byte
	d, err = timeEach(1500, func() error {
		var err error
		image, err = ls.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	L["appvisor.snapshot_rtt_us"] = metric{usOf(d), "us"}

	var respawns []float64
	for i := 0; i < 20; i++ {
		_, respawn, err := b.crashAndRespawn()
		if err != nil {
			return err
		}
		respawns = append(respawns, float64(respawn)/1e6)
	}
	L["appvisor.respawn_ms"] = metric{median(respawns), "ms"}

	// The checkpoint store on images like the workloads': 64 MACs, one
	// of them on another port from put to put, a full image every 16th.
	moved := *b.ev.Message.(*openflow.PacketIn)
	moved.InPort = hostPort(hostsPerSwitch)
	_ = ls.HandleEvent(ctrl, controller.Event{Kind: b.ev.Kind, DPID: b.ev.DPID, Message: &moved})
	other, err := ls.Snapshot()
	if err != nil {
		return err
	}
	images := [2][]byte{image, other}
	store := checkpoint.NewStore(0)
	store.SetDeltaEvery(checkpointDelta)
	seq := uint64(0)
	d, _ = timeEach(3000, func() error {
		seq++
		store.Put("learning-switch", seq, images[seq%2])
		return nil
	})
	L["checkpoint.put_us"] = metric{usOf(d), "us"}
	app := apps.NewLearningSwitch()
	d, err = timeEach(1500, func() error {
		cp := store.Latest("learning-switch")
		if cp == nil {
			return errors.New("no checkpoint stored")
		}
		return app.Restore(cp.State)
	})
	if err != nil {
		return err
	}
	L["checkpoint.restore_us"] = metric{usOf(d), "us"}
	return nil
}

// bareController is a controller with one netsim switch attached and
// nothing else: no AppVisor, no Crash-Pad.
func bareController() (*controller.Controller, *netsim.Network, error) {
	n := netsim.Single(2, nil)
	ctrl := controller.New(controller.Config{})
	ctrlSide, swSide := openflow.Pipe()
	if err := n.Switches()[0].Attach(swSide); err != nil {
		return nil, nil, err
	}
	if err := ctrl.AttachSwitchConn(ctrlSide); err != nil {
		return nil, nil, err
	}
	return ctrl, n, nil
}

// testFlowMod is a learning-switch-shaped rule for dpid 1.
func testFlowMod() *openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlDst
	m.DlDst = netsim.HostMAC(2)
	return &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, IdleTimeout: 30, Priority: 10,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone, Flags: openflow.FlowModFlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 101}},
	}
}

func microNetLog(L map[string]metric) error {
	bare, _, err := bareController()
	if err != nil {
		return err
	}
	defer bare.Stop()
	plain, err := timeEach(3000, func() error { return bare.SendFlowMod(1, testFlowMod()) })
	if err != nil {
		return err
	}

	ctrl, _, err := bareController()
	if err != nil {
		return err
	}
	defer ctrl.Stop()
	mgr := netlog.NewManager(ctrl, nil)
	mgr.Install(ctrl)
	tx := mgr.Begin()
	mgr.SetActive(tx)
	logged, err := timeEach(3000, func() error { return ctrl.SendFlowMod(1, testFlowMod()) })
	mgr.SetActive(nil)
	if err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	L["netlog.flowmod_us"] = metric{usOf(logged - plain), "us"}

	one := func(end func(*netlog.Txn) error) func() error {
		return func() error {
			tx := mgr.Begin()
			mgr.SetActive(tx)
			err := ctrl.SendFlowMod(1, testFlowMod())
			mgr.SetActive(nil)
			if err != nil {
				return err
			}
			return end(tx)
		}
	}
	d, err := timeEach(1500, one((*netlog.Txn).Commit))
	if err != nil {
		return err
	}
	L["netlog.txn_us"] = metric{usOf(d), "us"}
	d, err = timeEach(1500, one((*netlog.Txn).Abort))
	if err != nil {
		return err
	}
	L["netlog.rollback_us"] = metric{usOf(d), "us"}
	return nil
}

func microDurable(L map[string]metric) error {
	record := make([]byte, 128)
	for _, c := range []struct {
		name   string
		n      int
		noSync bool
	}{{"durable.append_us", 300, false}, {"durable.append_nosync_us", 3000, true}} {
		dir, err := newStateDir()
		if err != nil {
			return err
		}
		wal, err := durable.Open(dir, durable.Options{GroupCommit: true, NoSync: c.noSync})
		if err != nil {
			return err
		}
		d, err := timeEach(c.n, func() error { return wal.Append(1, record) })
		wal.Close()
		if err != nil {
			return err
		}
		L[c.name] = metric{usOf(d), "us"}
	}

	// Recovery: open a state directory whose journal holds one
	// transaction without a commit, and undo it on a live switch.
	ctrl, _, err := bareController()
	if err != nil {
		return err
	}
	defer ctrl.Stop()
	del := testFlowMod()
	del.Command = openflow.FlowModDeleteStrict
	var recoverMs []float64
	for i := 0; i < 5; i++ {
		dir, err := newStateDir()
		if err != nil {
			return err
		}
		st, err := durable.OpenState(dir, 0, durable.Options{GroupCommit: true})
		if err != nil {
			return err
		}
		op := netlog.JournalOp{DPID: 1, Inverses: []netlog.JournalInverse{{Mod: del}}}
		if err := errors.Join(st.Journal.TxnBegin(1), st.Journal.TxnOp(1, op), st.Close()); err != nil {
			return err
		}
		start := time.Now()
		st, err = durable.OpenState(dir, 0, durable.Options{GroupCommit: true})
		if err != nil {
			return err
		}
		txns, _, err := st.ReplayOrphans(ctrl, time.Now())
		recoverMs = append(recoverMs, float64(time.Since(start))/1e6)
		st.Close()
		if err != nil {
			return err
		}
		if txns != 1 {
			return fmt.Errorf("recovery undid %d transactions, want 1", txns)
		}
	}
	L["durable.recover_ms"] = metric{median(recoverMs), "ms"}
	return nil
}

func microDataPlane(L map[string]metric) {
	fm := testFlowMod()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		b, err := openflow.Encode(fm)
		if err == nil {
			_, err = openflow.Decode(b)
		}
		if err != nil {
			panic(err) // a rule this package built does not round-trip
		}
	}
	L["openflow.codec_us"] = metric{usOf(time.Since(start)) / n, "us"}

	sw := netsim.Single(hostsPerSwitch, nil).Switches()[0]
	start = time.Now()
	for i := 0; i < n; i++ {
		sw.HandleMessage(fm)
	}
	L["netsim.flowmod_apply_us"] = metric{usOf(time.Since(start)) / n, "us"}

	// One rule per host of a switch, as a warmed-up switch holds.
	table := netsim.NewFlowTable(nil)
	for h := 0; h < hostsPerSwitch; h++ {
		rule := testFlowMod()
		rule.Match.DlDst = netsim.HostMAC(h + 1)
		if _, err := table.Apply(rule); err != nil {
			panic(err)
		}
	}
	fields := netsim.TCPFrame(&netsim.Host{MAC: netsim.HostMAC(1)}, &netsim.Host{MAC: netsim.HostMAC(2)}, 1, 2, nil).Fields(1)
	const lookups = 200000
	start = time.Now()
	for i := 0; i < lookups; i++ {
		if table.Lookup(fields, 64) == nil {
			panic("flow table lost a rule")
		}
	}
	L["flowtable.lookup_ns"] = metric{float64(time.Since(start)) / lookups, "ns"}
}

// quorumWait isolates what quorum commit adds to one FlowMod: the
// replicated run's ctx.SendFlowMod time minus the same interval on a
// single-node durable deployment, traced here, on the same disk, right
// after it.
func quorumWait(rep *report, seed int64) error {
	w, err := workloadByName("durable")
	if err != nil {
		return err
	}
	rec := &recorder{}
	e, err := newEnv(w, newSchedule(seed, false), rec)
	if err != nil {
		return err
	}
	defer e.close()
	g := &generator{e: e}
	if err := g.teach(); err != nil {
		return err
	}
	var st segStats
	rec.enable(true)
	err = g.runCount(1, 400, &st)
	rec.enable(false)
	if err != nil {
		return err
	}
	ref := analyse(rec.take())
	rep.Layers["replica.quorum_wait_us"] = metric{rep.Layers["appvisor.send_flowmod_us"].Value - ref.sendFlowMod, "us"}
	return nil
}
