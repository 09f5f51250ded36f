package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"legosdn/internal/controller"
	"legosdn/internal/netlog"
	"legosdn/internal/openflow"
)

// spanKind names a seam the harness can observe without touching the
// program: everything is recorded from wrappers this package owns.
type spanKind uint8

const (
	spEvent         spanKind = iota // Inject called -> frame delivered to the host
	spSnapshot                      // app's Snapshot entered -> left (inside the stub)
	spHandler                       // app's HandleEvent entered -> left (inside the stub)
	spFlowMod                       // ctx.SendFlowMod called -> returned (inside the stub)
	spPacketOut                     // ctx.SendPacketOut called -> returned (inside the stub)
	spJournal                       // one netlog.Journal call entered -> left
	spHookFlowMod                   // instant: FlowMod left NetLog's hook, about to be written
	spHookPacketOut                 // instant: PacketOut about to be written
)

var spanNames = [...]string{
	spEvent: "event", spSnapshot: "app.Snapshot", spHandler: "app.HandleEvent",
	spFlowMod: "ctx.SendFlowMod", spPacketOut: "ctx.SendPacketOut", spJournal: "journal",
	spHookFlowMod: "hook.FlowMod", spHookPacketOut: "hook.PacketOut",
}

// span is one recorded interval. ev is the id of the event that caused
// it; app is the position of the app in the workload's app list.
type span struct {
	ev         uint32
	kind       spanKind
	app        uint8
	start, end int64 // nowNs()
}

// recorder keeps spans in memory until the run ends. It is shared by the
// generator, the stubs' goroutines and the controller's send path.
type recorder struct {
	on atomic.Bool
	// cur is the event whose handler entered most recently. Dispatch is
	// serial, so journal calls and FlowMods between two handler entries
	// belong to it.
	cur atomic.Uint32

	mu    sync.Mutex
	spans []span
	// snapBytes sums the images Snapshot returned while on.
	snapBytes atomic.Uint64
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns and clears the recorded spans.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// benchApp is the harness's wrapper around a registry app, living inside
// the stub like the app itself. It carries the injected bug (a panic on
// a poisoned PacketIn) and, when rec is set and on, records spans at the
// app's seams. Snapshot and Restore pass straight through, so Crash-Pad
// checkpoints and restores the inner app.
type benchApp struct {
	inner  controller.App
	snap   controller.Snapshotter
	poison bool
	rec    *recorder
	idx    uint8

	// The Snapshot that precedes an event carries no event identity; it
	// is held here and attributed when the handler enters. The stub runs
	// both on one goroutine.
	snapStart, snapEnd int64
}

func newBenchApp(inner controller.App, idx int, poison bool, rec *recorder) (*benchApp, error) {
	snap, ok := inner.(controller.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("bench: app %q does not snapshot", inner.Name())
	}
	return &benchApp{inner: inner, snap: snap, poison: poison, rec: rec, idx: uint8(idx)}, nil
}

func (a *benchApp) Name() string                          { return a.inner.Name() }
func (a *benchApp) Subscriptions() []controller.EventKind { return a.inner.Subscriptions() }

func (a *benchApp) tracing() bool { return a.rec != nil && a.rec.on.Load() }

func (a *benchApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	var data []byte
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		data = pin.Data
	}
	if a.poison && framePoisoned(data) {
		panic("bench: injected bug, cannot handle a poisoned PacketIn")
	}
	if !a.tracing() {
		return a.inner.HandleEvent(ctx, ev)
	}
	id, ok := frameID(data)
	if !ok {
		if fr, isFR := ev.Message.(*openflow.FlowRemoved); isFR {
			id = uint32(fr.Cookie)
		}
	}
	start := nowNs()
	a.rec.cur.Store(id)
	if a.snapEnd != 0 {
		a.rec.add(span{ev: id, kind: spSnapshot, app: a.idx, start: a.snapStart, end: a.snapEnd})
		a.snapEnd = 0
	}
	err := a.inner.HandleEvent(&tracedCtx{Context: ctx, rec: a.rec, ev: id, app: a.idx}, ev)
	a.rec.add(span{ev: id, kind: spHandler, app: a.idx, start: start, end: nowNs()})
	return err
}

func (a *benchApp) Snapshot() ([]byte, error) {
	if !a.tracing() {
		return a.snap.Snapshot()
	}
	a.snapStart = nowNs()
	state, err := a.snap.Snapshot()
	a.snapEnd = nowNs()
	a.rec.snapBytes.Add(uint64(len(state)))
	return state, err
}

func (a *benchApp) Restore(state []byte) error { return a.snap.Restore(state) }

// tracedCtx times the two calls through which an app reaches a switch.
type tracedCtx struct {
	controller.Context
	rec *recorder
	ev  uint32
	app uint8
}

func (c *tracedCtx) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	start := nowNs()
	err := c.Context.SendFlowMod(dpid, fm)
	c.rec.add(span{ev: c.ev, kind: spFlowMod, app: c.app, start: start, end: nowNs()})
	return err
}

func (c *tracedCtx) SendPacketOut(dpid uint64, po *openflow.PacketOut) error {
	start := nowNs()
	err := c.Context.SendPacketOut(dpid, po)
	c.rec.add(span{ev: c.ev, kind: spPacketOut, app: c.app, start: start, end: nowNs()})
	return err
}

// tracedJournal times every call NetLog makes into its durable journal.
type tracedJournal struct {
	inner netlog.Journal
	rec   *recorder
}

func (j *tracedJournal) timed(fn func() error) error {
	if !j.rec.on.Load() {
		return fn()
	}
	start := nowNs()
	err := fn()
	j.rec.add(span{ev: j.rec.cur.Load(), kind: spJournal, start: start, end: nowNs()})
	return err
}

func (j *tracedJournal) TxnBegin(id uint64) error {
	return j.timed(func() error { return j.inner.TxnBegin(id) })
}
func (j *tracedJournal) TxnOp(id uint64, op netlog.JournalOp) error {
	return j.timed(func() error { return j.inner.TxnOp(id, op) })
}
func (j *tracedJournal) TxnCommit(id uint64) error {
	return j.timed(func() error { return j.inner.TxnCommit(id) })
}
func (j *tracedJournal) TxnAbort(id uint64) error {
	return j.timed(func() error { return j.inner.TxnAbort(id) })
}

// outboundHook is appended after NetLog's hook: a message reaching it
// has passed every layer above the OpenFlow write.
func (r *recorder) outboundHook() controller.OutboundHook {
	return func(_ uint64, msg openflow.Message) (openflow.Message, error) {
		if !r.on.Load() {
			return msg, nil
		}
		switch m := msg.(type) {
		case *openflow.FlowMod:
			t := nowNs()
			r.add(span{ev: r.cur.Load(), kind: spHookFlowMod, start: t, end: t})
		case *openflow.PacketOut:
			t := nowNs()
			id, ok := frameID(m.Data)
			if !ok {
				id = r.cur.Load()
			}
			r.add(span{ev: id, kind: spHookPacketOut, start: t, end: t})
		}
		return msg, nil
	}
}

// traceFileEvents bounds the Chrome trace file: spans of the first
// traceFileEvents traced events are written, all of them are measured.
const traceFileEvents = 2000

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing, https://ui.perfetto.dev).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans to path. Lanes: 1 the end-to-end event,
// 2 the controller's send path, 3 the journal, 10+k app k's stub.
func writeChromeTrace(path string, spans []span, apps []string) error {
	if len(spans) == 0 {
		return nil
	}
	first := spans[0].ev
	for _, s := range spans {
		if s.ev < first {
			first = s.ev
		}
	}
	events := make([]chromeEvent, 0, len(spans)+len(apps)+3)
	lane := func(tid int, name string) {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	lane(1, "inject -> delivery")
	lane(2, "controller send path")
	lane(3, "netlog journal")
	for i, name := range apps {
		lane(10+i, "stub "+name)
	}
	for _, s := range spans {
		if s.ev-first >= traceFileEvents {
			continue
		}
		e := chromeEvent{Name: spanNames[s.kind], Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Args: map[string]any{"ev": s.ev}}
		switch s.kind {
		case spEvent:
			e.Tid = 1
		case spHookFlowMod, spHookPacketOut:
			e.Tid, e.Ph, e.Dur = 2, "i", 0
		case spJournal:
			e.Tid = 3
		default:
			e.Tid = 10 + int(s.app)
		}
		events = append(events, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
