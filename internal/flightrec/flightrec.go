// Package flightrec is LegoSDN's always-on flight recorder: bounded,
// lock-free ring buffers of compact structured records written
// unconditionally by every layer of the control loop. Where
// internal/trace samples a fraction of events into spans, the flight
// recorder keeps the last few thousand facts per layer for *every*
// event — cheap enough to leave on in production — so that when an app
// crashes, a recovery runs, or a chaos invariant breaks, the stack can
// assemble an autopsy from evidence that already exists instead of
// hoping the failure replays under higher sampling.
//
// Design constraints, in order:
//
//   - Always on, near-zero cost. One record is one atomic claim, one
//     small allocation and one atomic pointer swap — the same
//     publication scheme as trace's span rings, which the race
//     detector certifies. No locks on the write path, ever.
//   - Bounded. Each layer owns a fixed power-of-two ring; the oldest
//     record is overwritten when full. Memory is capacity * pointer
//     per layer plus the live records themselves.
//   - Correlatable. Records carry the app name, trace id, transaction
//     id and event seq, so an autopsy can pull "the last N records per
//     layer that touch this failure" without any global index.
package flightrec

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"legosdn/internal/metrics"
)

// Layer identifies which subsystem wrote a record.
type Layer uint8

// Layers, one ring each.
const (
	LayerController Layer = iota
	LayerAppVisor
	LayerNetLog
	LayerCrashPad
	LayerCheckpoint
	NumLayers
)

func (l Layer) String() string {
	switch l {
	case LayerController:
		return "controller"
	case LayerAppVisor:
		return "appvisor"
	case LayerNetLog:
		return "netlog"
	case LayerCrashPad:
		return "crashpad"
	case LayerCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("layer(%d)", int(l))
	}
}

// Kind is what happened.
type Kind uint8

// Record kinds.
const (
	KindEventDispatched Kind = iota
	KindQuarantine
	KindTxnBegin
	KindTxnCommit
	KindTxnAbort
	KindCheckpointPut
	KindCheckpointRestore
	KindPolicyDecision
	KindCrashDetected
	KindStubRespawn
	KindStubKill
	KindReplay
	KindRecoveryDone
)

func (k Kind) String() string {
	switch k {
	case KindEventDispatched:
		return "event-dispatched"
	case KindQuarantine:
		return "quarantine"
	case KindTxnBegin:
		return "txn-begin"
	case KindTxnCommit:
		return "txn-commit"
	case KindTxnAbort:
		return "txn-abort"
	case KindCheckpointPut:
		return "checkpoint-put"
	case KindCheckpointRestore:
		return "checkpoint-restore"
	case KindPolicyDecision:
		return "policy-decision"
	case KindCrashDetected:
		return "crash-detected"
	case KindStubRespawn:
		return "stub-respawn"
	case KindStubKill:
		return "stub-kill"
	case KindReplay:
		return "replay"
	case KindRecoveryDone:
		return "recovery-done"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is one compact fact. Zero-valued correlation fields mean "not
// applicable"; App empty means the record belongs to no single app.
type Record struct {
	Seq   uint64 `json:"seq"`           // recorder-global order
	TS    int64  `json:"ts_unix_nano"`  // wall-clock nanoseconds
	Layer Layer  `json:"layer"`         // which ring
	Kind  Kind   `json:"kind"`          // what happened
	App   string `json:"app,omitempty"` // owning app, if any
	Trace uint64 `json:"trace,omitempty"`
	Txn   uint64 `json:"txn,omitempty"`
	EvSeq uint64 `json:"ev_seq,omitempty"`
	DPID  uint64 `json:"dpid,omitempty"`
	// N is a kind-specific count (ops committed, txns replayed, ...).
	// Hot-path writers use it instead of formatting a Note: a typed
	// field costs nothing, fmt.Sprintf costs ~100ns and two allocs.
	N    int64  `json:"n,omitempty"`
	Note string `json:"note,omitempty"`
}

// String renders one record the way autopsy text does.
func (r Record) String() string {
	s := fmt.Sprintf("#%d %s %s", r.Seq, r.Layer, r.Kind)
	if r.App != "" {
		s += " app=" + r.App
	}
	if r.EvSeq != 0 {
		s += fmt.Sprintf(" seq=%d", r.EvSeq)
	}
	if r.DPID != 0 {
		s += fmt.Sprintf(" dpid=%d", r.DPID)
	}
	if r.Trace != 0 {
		s += fmt.Sprintf(" trace=%016x", r.Trace)
	}
	if r.Txn != 0 {
		s += fmt.Sprintf(" txn=%d", r.Txn)
	}
	if r.N != 0 {
		s += fmt.Sprintf(" n=%d", r.N)
	}
	if r.Note != "" {
		s += " " + r.Note
	}
	return s
}

// ring is one layer's bounded record buffer: writers claim slot indexes
// with next.Add and publish with an atomic pointer swap (the proven
// race-clean scheme from internal/trace's span rings).
type ring struct {
	next  atomic.Uint64
	slots []atomic.Pointer[Record]
	mask  uint64
}

func (rg *ring) publish(rec *Record) bool {
	idx := (rg.next.Add(1) - 1) & rg.mask
	return rg.slots[idx].Swap(rec) != nil
}

// Options tunes a Recorder.
type Options struct {
	// PerLayer is each layer's ring capacity, rounded up to a power of
	// two (default 2048). Total memory is NumLayers * PerLayer slots.
	PerLayer int
}

// Recorder is the flight recorder. A nil *Recorder is fully usable:
// every method no-ops, so layers wire recording unconditionally and pay
// one branch when it is absent.
type Recorder struct {
	rings [NumLayers]ring
	seq   atomic.Uint64

	// Records counts publishes; Laps counts ring overwrites (the
	// recorder working as designed, but visible so a postmortem knows
	// how far back the evidence reaches).
	Records metrics.Counter
	Laps    metrics.Counter
}

// New creates a Recorder.
func New(opts Options) *Recorder {
	if opts.PerLayer <= 0 {
		opts.PerLayer = 2048
	}
	cap := ceilPow2(opts.PerLayer)
	r := &Recorder{}
	for i := range r.rings {
		r.rings[i].slots = make([]atomic.Pointer[Record], cap)
		r.rings[i].mask = uint64(cap - 1)
	}
	return r
}

// Instrument registers the recorder's counters into reg.
func (r *Recorder) Instrument(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_flightrec_records_total",
		"flight-recorder records written across all layers", &r.Records)
	reg.RegisterCounter("legosdn_flightrec_laps_total",
		"flight-recorder slots overwritten by ring wrap-around", &r.Laps)
}

// Record stamps rec with a global sequence number and wall-clock time
// and publishes it into its layer's ring. Safe from any goroutine;
// no-op on a nil recorder or an out-of-range layer.
func (r *Recorder) Record(rec Record) {
	if r == nil || rec.Layer >= NumLayers {
		return
	}
	rec.Seq = r.seq.Add(1)
	rec.TS = time.Now().UnixNano()
	if r.rings[rec.Layer].publish(&rec) {
		r.Laps.Add(1)
	}
	r.Records.Add(1)
}

// LayerRecords returns the last n records of one layer, oldest first
// (n <= 0 returns all held).
func (r *Recorder) LayerRecords(l Layer, n int) []Record {
	if r == nil || l >= NumLayers {
		return nil
	}
	return r.rings[l].newest(n, func(*Record) bool { return true })
}

// Correlated pulls the evidence for one failure: for each layer, the
// last perLayer records that plausibly belong to it — matching the app
// name, the trace id or the transaction id, or carrying no app at all
// (layer-global facts like txn lifecycle under an empty trace). The
// result maps layer name to records, oldest first; empty layers are
// omitted. app == "" matches every record.
func (r *Recorder) Correlated(app string, traceID, txnID uint64, perLayer int) map[string][]Record {
	if r == nil {
		return nil
	}
	if perLayer <= 0 {
		perLayer = 16
	}
	match := func(rec *Record) bool {
		return app == "" || rec.App == "" || rec.App == app ||
			traceID != 0 && rec.Trace == traceID ||
			txnID != 0 && rec.Txn == txnID
	}
	out := make(map[string][]Record, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		if recs := r.rings[l].newest(perLayer, match); len(recs) > 0 {
			out[l.String()] = recs
		}
	}
	return out
}

// newest returns up to n of the newest records that keep accepts,
// oldest first (n <= 0 means no limit). It walks back from the write
// position and stops at the n-th match, so its cost follows n and the
// share of records that match, not the ring's capacity. Each slot is
// read once: concurrent writers can make the walk miss a record being
// overwritten, never return one twice.
func (rg *ring) newest(n int, keep func(*Record) bool) []Record {
	size := uint64(len(rg.slots))
	if n <= 0 || uint64(n) > size {
		n = int(size)
	}
	end := rg.next.Load()
	out := make([]Record, 0, min(uint64(n), end))
	for i := uint64(0); i < size && i < end && len(out) < n; i++ {
		if rec := rg.slots[(end-1-i)&rg.mask].Load(); rec != nil && keep(rec) {
			out = append(out, *rec)
		}
	}
	// The walk is newest first. Concurrent writers can publish out of
	// Seq order, so sort only when reversing did not order it.
	slices.Reverse(out)
	bySeq := func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) }
	if !slices.IsSortedFunc(out, bySeq) {
		slices.SortFunc(out, bySeq)
	}
	return out
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
