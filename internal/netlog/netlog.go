// Package netlog implements LegoSDN's network transaction layer (§3.2
// of the paper). Control messages that alter switch state are bundled
// into transactions with all-or-nothing semantics; aborting a
// transaction rolls every switch back to its pre-transaction state.
//
// The core insight is the paper's: every state-altering control message
// is invertible. The inverse of an ADD is a strict delete; the inverse
// of a MODIFY or DELETE is the restoration of the previous entries. The
// imperfect residue of an undo — lost flow timeouts and counters — is
// papered over exactly as §3.2 prescribes: restored entries carry their
// remaining hard-timeout budget, and destroyed counter values live on
// in a counter-cache that corrects subsequent statistics replies.
//
// The Manager maintains a shadow flow table per switch (the same
// flowtable implementation the simulated switches run) by observing the
// controller's outbound messages, which is how it knows what an inverse
// must restore without querying the network on every write.
package netlog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/flightrec"
	"legosdn/internal/flowtable"
	"legosdn/internal/metrics"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// Sender abstracts the controller surface NetLog writes rollback
// messages through. *controller.Controller satisfies it.
type Sender interface {
	SendMessage(dpid uint64, msg openflow.Message) error
	Barrier(dpid uint64) error
}

// StatsRequester is optionally implemented by Senders that can read
// flow statistics; NetLog uses it to capture an entry's counters before
// a transactional write destroys them (*controller.Controller
// implements it).
type StatsRequester interface {
	RequestStats(dpid uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error)
}

// TxnState tracks a transaction's lifecycle.
type TxnState int

// Transaction states.
const (
	TxnOpen TxnState = iota
	TxnCommitted
	TxnAborted
)

func (s TxnState) String() string {
	switch s {
	case TxnOpen:
		return "open"
	case TxnCommitted:
		return "committed"
	case TxnAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrTxnClosed reports an operation on a committed or aborted
// transaction.
var ErrTxnClosed = errors.New("netlog: transaction closed")

// undoOp reverses one journaled FlowMod: delete what it added, restore
// what it destroyed or overwrote.
type undoOp struct {
	dpid    uint64
	remove  []strictKey        // entries the op created
	restore []*flowtable.Entry // entries the op destroyed/overwrote (deep copies)
}

type strictKey struct {
	match    openflow.Match
	priority uint16
}

// Txn is one network-wide atomic update.
type Txn struct {
	ID    uint64
	m     *Manager
	state TxnState
	ops   []undoOp
	dpids map[uint64]bool // switches touched

	// journaled is set once the transaction's begin record (and at
	// least one op) is on disk; only journaled transactions write
	// commit/abort records.
	journaled bool

	// span is the "netlog.txn" lifecycle span for a traced transaction
	// (nil otherwise); sc is its context, the parent of journal and
	// abort child spans.
	span *trace.Span
	sc   trace.SpanContext

	// traceID is the opening event's trace id, kept even for unsampled
	// events so flight records correlate txn lifecycle with dispatch.
	traceID uint64
}

// counterKey identifies a flow entry across delete/restore cycles.
type counterKey struct {
	dpid     uint64
	match    openflow.Match
	priority uint16
}

type counterAdjust struct {
	packets uint64
	bytes   uint64
}

// shardCount fixes the number of DPID shards. Power of two so the
// index is a mask; 16 is plenty ahead of per-shard contention for any
// realistic switch fan-out.
const shardCount = 16

// netShard holds the per-switch mutable state for one slice of the
// DPID space: shadow flow tables and the counter-cache. Transactions
// touching disjoint switches lock disjoint shards and never contend.
type netShard struct {
	mu       sync.Mutex
	shadows  map[uint64]*flowtable.Table
	counters map[counterKey]counterAdjust
}

// Manager is the NetLog engine: shadow state, transaction journal and
// counter-cache. It is also a controller.App — register it FIRST in the
// dispatch chain so it observes FlowRemoved and switch lifecycle events
// before any app reacts to them (under the parallel pipeline it is an
// InlineObserver, which enforces exactly that).
//
// Locking: shadow tables and the counter-cache are sharded by DPID
// with a per-shard mutex; the global mu covers only transaction
// lifecycle (begin/commit/abort ordering, the active journal and the
// rollback window). Lock order is shard.mu before mu — never acquire a
// shard lock while holding mu.
type Manager struct {
	sender Sender
	clock  flowtable.Clock
	tracer *trace.Tracer
	flight *flightrec.Recorder

	// journal, when set, makes transactions crash-recoverable; see
	// SetJournal. Written once before traffic flows, read without
	// synchronization on the hot path.
	journal Journal

	shards [shardCount]netShard

	mu       sync.Mutex
	active   *Txn
	nextTxn  uint64
	rollback int // >0 while rollback messages are in flight: hook passes them through

	// sendFault, when set, intercepts rollback-path sends (fault
	// injection); see SetSendFault.
	sendFault atomic.Pointer[SendFault]

	// Rollbacks counts completed aborts; RolledBackMods counts inverse
	// messages sent. Atomic: read live by benchmarks.
	Rollbacks      metrics.Counter
	RolledBackMods metrics.Counter
	CommittedTxns  metrics.Counter
	// BegunTxns counts transactions opened via Begin.
	BegunTxns metrics.Counter
	// JournalErrors counts failed journal appends. Journaling is
	// best-effort by policy: a write error degrades recoverability,
	// never availability.
	JournalErrors metrics.Counter

	// inversionLatency times Abort end to end (inverse computation,
	// inverse sends and the closing barriers). Nil when uninstrumented.
	inversionLatency *metrics.Histogram
}

// NewManager creates a NetLog engine writing rollbacks through sender.
// clock may be nil (real time).
func NewManager(sender Sender, clock flowtable.Clock) *Manager {
	if clock == nil {
		clock = flowtable.RealClock{}
	}
	m := &Manager{sender: sender, clock: clock}
	for i := range m.shards {
		m.shards[i].shadows = make(map[uint64]*flowtable.Table)
		m.shards[i].counters = make(map[counterKey]counterAdjust)
	}
	return m
}

// SetTracer wires the tracing layer in; nil disables transaction spans.
func (m *Manager) SetTracer(t *trace.Tracer) { m.tracer = t }

// SetJournal installs the durability journal. Must be called before
// traffic flows (the field is read without synchronization on the hot
// path); nil leaves transactions memory-only, the pre-durability
// behavior.
func (m *Manager) SetJournal(j Journal) { m.journal = j }

// SetFlight installs the always-on flight recorder. Like SetJournal,
// written once before traffic flows; nil leaves txn lifecycle
// unrecorded.
func (m *Manager) SetFlight(f *flightrec.Recorder) { m.flight = f }

// journalAppend runs one journal write, absorbing errors into the
// JournalErrors counter (availability over durability).
func (m *Manager) journalAppend(fn func() error) {
	if err := fn(); err != nil {
		m.JournalErrors.Add(1)
	}
}

// shardOf maps a datapath id to its shard.
func (m *Manager) shardOf(dpid uint64) *netShard {
	return &m.shards[dpid&(shardCount-1)]
}

// Install wires the manager into a controller: outbound hook, stats
// rewriter and event subscription.
func (m *Manager) Install(c *controller.Controller) {
	c.AddOutboundHook(m.Hook())
	c.AddStatsRewriter(m.RewriteStats)
	c.Register(m)
}

// Instrument registers the manager's transaction counters and the
// inversion-latency histogram into reg.
func (m *Manager) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("legosdn_netlog_txn_begun_total", "transactions opened", &m.BegunTxns)
	reg.RegisterCounter("legosdn_netlog_txn_committed_total", "transactions committed", &m.CommittedTxns)
	reg.RegisterCounter("legosdn_netlog_txn_rollbacks_total", "transactions aborted and rolled back", &m.Rollbacks)
	reg.RegisterCounter("legosdn_netlog_rolled_back_mods_total", "inverse messages sent during rollbacks", &m.RolledBackMods)
	reg.RegisterCounter("legosdn_netlog_journal_errors_total", "failed durable-journal appends", &m.JournalErrors)
	m.inversionLatency = reg.Histogram("legosdn_netlog_inversion_seconds",
		"latency of one transaction abort: inverse sends plus closing barriers", nil)
	reg.RegisterGaugeFunc("legosdn_netlog_counter_cache_entries",
		"live counter-cache adjustments", func() float64 { return float64(m.CounterCacheSize()) })
}

// shadow returns dpid's shadow table, creating it on first touch.
// Caller holds the dpid's shard lock.
func (m *Manager) shadow(sh *netShard, dpid uint64) *flowtable.Table {
	t := sh.shadows[dpid]
	if t == nil {
		t = flowtable.New(m.clock)
		sh.shadows[dpid] = t
	}
	return t
}

// ShadowFingerprint exposes the shadow's rule state for tests and the
// invariant checker.
func (m *Manager) ShadowFingerprint(dpid uint64) string {
	sh := m.shardOf(dpid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.shadow(sh, dpid).Fingerprint()
}

// ShadowEntries returns deep copies of the shadow's entries.
func (m *Manager) ShadowEntries(dpid uint64) []*flowtable.Entry {
	sh := m.shardOf(dpid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return m.shadow(sh, dpid).Entries()
}

// Begin opens a transaction.
func (m *Manager) Begin() *Txn {
	return m.BeginTraced(trace.SpanContext{})
}

// BeginTraced opens a transaction under the given trace context (the
// event whose processing this transaction brackets). The transaction's
// "netlog.txn" span stays open until Commit or Abort closes it with the
// final state; journaled mods and the abort appear as child spans.
func (m *Manager) BeginTraced(sc trace.SpanContext) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextTxn++
	m.BegunTxns.Add(1)
	tx := &Txn{ID: m.nextTxn, m: m, dpids: make(map[uint64]bool), traceID: sc.TraceID}
	if sp := m.tracer.StartSpan(sc, "netlog.txn"); sp != nil {
		sp.AttrInt("txn", int64(tx.ID))
		tx.span = sp
		tx.sc = sp.Context()
	}
	// No flight record here: Commit/Abort write one record per txn that
	// did something, which implies the begin. Recording every open would
	// double the per-event cost and fill the NetLog ring with noise.
	return tx
}

// SetActive routes subsequent hooked FlowMods into tx's journal; nil
// clears the active transaction. The controller dispatch loop is
// single-threaded, so one active transaction suffices.
func (m *Manager) SetActive(tx *Txn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = tx
}

// Active returns the transaction messages are currently journaled into.
func (m *Manager) Active() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// Hook returns the outbound hook maintaining shadow state and the
// journal. Messages are never rewritten or suppressed — NetLog is an
// observer on the forward path.
func (m *Manager) Hook() controller.OutboundHook {
	return func(dpid uint64, msg openflow.Message) (openflow.Message, error) {
		fm, ok := msg.(*openflow.FlowMod)
		if !ok {
			return msg, nil
		}
		// Capture live counters for entries this write may destroy,
		// before any state changes (§3.2: NetLog "stores and maintains
		// the timeout and counter information of a flow table entry
		// before deleting it"). Only transactional writes pay this cost.
		var live map[strictKey]openflow.FlowStatsEntry
		if m.txnOpenAndForward() && fm.Command != openflow.FlowModAdd {
			live = m.liveCounters(dpid, fm)
		}

		sh := m.shardOf(dpid)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		m.mu.Lock()
		if m.rollback > 0 {
			// Inverse messages: shadow updates are applied directly by
			// the abort path; pass through untouched.
			m.mu.Unlock()
			return msg, nil
		}
		active := m.active
		m.mu.Unlock()

		// Journal span: covers inverse computation and the journal
		// append for one FlowMod of a traced transaction.
		var jsp *trace.Span
		if active != nil {
			if jsp = m.tracer.StartSpan(active.sc, "netlog.journal"); jsp != nil {
				jsp.AttrInt("dpid", int64(dpid)).AttrInt("cmd", int64(fm.Command))
				defer jsp.End()
			}
		}

		undo := m.computeUndo(sh, dpid, fm)
		for i, e := range undo.restore {
			if ls, ok := live[strictKey{e.Match, e.Priority}]; ok {
				undo.restore[i].PacketCount = ls.PacketCount
				undo.restore[i].ByteCount = ls.ByteCount
			}
		}
		if _, err := m.shadow(sh, dpid).Apply(fm); err != nil {
			// The switch will reject it too; nothing to journal.
			return msg, nil
		}
		m.noteCounterEviction(sh, dpid, fm)
		if active != nil {
			m.mu.Lock()
			// Re-check under mu: the transaction may have closed while
			// the shadow applied; a closed journal must not grow. The
			// shard lock is still held, so journal order matches shadow
			// apply order for this switch.
			if m.active == active && active.state == TxnOpen {
				active.ops = append(active.ops, undo)
				active.dpids[dpid] = true
				if m.journal != nil {
					// Durable journal, written under mu so record order
					// matches op order. TxnBegin is lazy — written with
					// the first op — so transactions that never touch a
					// switch cost no fsyncs.
					if !active.journaled {
						active.journaled = true
						m.journalAppend(func() error { return m.journal.TxnBegin(active.ID) })
					}
					jop := undo.journalOp()
					m.journalAppend(func() error { return m.journal.TxnOp(active.ID, jop) })
				}
			}
			m.mu.Unlock()
		}
		return msg, nil
	}
}

// txnOpenAndForward reports whether an open transaction is active and
// we are on the forward (non-rollback) path.
func (m *Manager) txnOpenAndForward() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rollback == 0 && m.active != nil && m.active.state == TxnOpen
}

// liveCounters reads the switch's current counters for entries a
// destructive FlowMod may touch. Best effort: a failed read simply
// leaves zero counters in the journal.
func (m *Manager) liveCounters(dpid uint64, fm *openflow.FlowMod) map[strictKey]openflow.FlowStatsEntry {
	sr, ok := m.sender.(StatsRequester)
	if !ok {
		return nil
	}
	outPort := openflow.PortNone
	if fm.Command == openflow.FlowModDelete || fm.Command == openflow.FlowModDeleteStrict {
		outPort = fm.OutPort
	}
	reply, err := sr.RequestStats(dpid, &openflow.StatsRequest{
		StatsType: openflow.StatsTypeFlow,
		Flow:      &openflow.FlowStatsRequest{Match: fm.Match, TableID: 0xff, OutPort: outPort},
	})
	if err != nil {
		return nil
	}
	out := make(map[strictKey]openflow.FlowStatsEntry, len(reply.Flows))
	for _, f := range reply.Flows {
		out[strictKey{f.Match.Normalize(), f.Priority}] = f
	}
	return out
}

// computeUndo derives the inverse of fm against the current shadow.
// Caller holds the dpid's shard lock.
func (m *Manager) computeUndo(shd *netShard, dpid uint64, fm *openflow.FlowMod) undoOp {
	sh := m.shadow(shd, dpid)
	norm := fm.Match.Normalize()
	op := undoOp{dpid: dpid}
	switch fm.Command {
	case openflow.FlowModAdd, openflow.FlowModModify, openflow.FlowModModifyStrict:
		op.restore = sh.Select(&norm, fm.Priority, fm.Command != openflow.FlowModModify, openflow.PortNone)
		if len(op.restore) == 0 {
			// Nothing is overwritten (a modify then behaves as an add):
			// the inverse removes what this FlowMod installs.
			op.remove = append(op.remove, strictKey{norm, fm.Priority})
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		// out_port filtering mirrors the table's semantics.
		op.restore = sh.Select(&norm, fm.Priority, fm.Command == openflow.FlowModDeleteStrict, fm.OutPort)
	}
	return op
}

// noteCounterEviction clears counter-cache entries whose flow is being
// genuinely deleted or replaced (the adjustment must not outlive the
// rule identity it corrects). Caller holds the dpid's shard lock.
func (m *Manager) noteCounterEviction(sh *netShard, dpid uint64, fm *openflow.FlowMod) {
	norm := fm.Match.Normalize()
	switch fm.Command {
	case openflow.FlowModAdd:
		delete(sh.counters, counterKey{dpid, norm, fm.Priority})
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		for k := range sh.counters {
			if k.dpid != dpid {
				continue
			}
			if fm.Command == openflow.FlowModDeleteStrict {
				if k.match == norm && k.priority == fm.Priority {
					delete(sh.counters, k)
				}
			} else if norm.Subsumes(&k.match) {
				delete(sh.counters, k)
			}
		}
	}
}

// Commit finalizes the transaction: barriers flush every touched switch
// and the journal is discarded.
func (t *Txn) Commit() error {
	t.m.mu.Lock()
	if t.state != TxnOpen {
		t.m.mu.Unlock()
		return ErrTxnClosed
	}
	t.state = TxnCommitted
	if t.m.active == t {
		t.m.active = nil
	}
	t.m.CommittedTxns.Add(1)
	dpids := keys(t.dpids)
	span, ops := t.span, len(t.ops)
	journaled := t.journaled
	t.span = nil
	t.m.mu.Unlock()
	if journaled && t.m.journal != nil {
		// The commit record makes the decision durable before the
		// barriers flush it: a crash after this point must not roll the
		// transaction back.
		t.m.journalAppend(func() error { return t.m.journal.TxnCommit(t.ID) })
	}
	if span != nil {
		span.Attr("state", "committed").AttrInt("ops", int64(ops)).End()
	}
	if ops > 0 || journaled {
		// Empty transactions (an app handled the event and sent
		// nothing) are the common case at capacity; recording them
		// would lap real evidence out of the bounded ring in
		// milliseconds. A commit record implies its begin.
		t.m.flight.Record(flightrec.Record{
			Layer: flightrec.LayerNetLog, Kind: flightrec.KindTxnCommit,
			Trace: t.traceID, Txn: t.ID, N: int64(ops),
		})
	}
	for _, d := range dpids {
		if err := t.m.sender.Barrier(d); err != nil {
			return fmt.Errorf("netlog: commit barrier to %d: %w", d, err)
		}
	}
	return nil
}

// Abort rolls back every journaled operation in reverse order, restoring
// destroyed entries with their remaining timeout budget and feeding their
// counter values into the counter-cache.
func (t *Txn) Abort() error {
	if t.m.inversionLatency != nil {
		defer t.m.inversionLatency.ObserveSince(time.Now())
	}
	t.m.mu.Lock()
	if t.state != TxnOpen {
		t.m.mu.Unlock()
		return ErrTxnClosed
	}
	t.state = TxnAborted
	if t.m.active == t {
		t.m.active = nil
	}
	t.m.rollback++
	ops := t.ops
	span := t.span
	journaled := t.journaled
	t.span = nil
	t.m.mu.Unlock()

	// The abort child span times the rollback itself (inverse sends plus
	// barriers); the parent txn span closes after it with the final state.
	abortSpan := t.m.tracer.StartSpan(t.sc, "netlog.abort")

	var firstErr error
	now := t.m.clock.Now()
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		sh := t.m.shardOf(op.dpid)
		for _, k := range op.remove {
			fm := &openflow.FlowMod{
				Match:    k.match,
				Command:  openflow.FlowModDeleteStrict,
				Priority: k.priority,
				BufferID: openflow.BufferIDNone,
				OutPort:  openflow.PortNone,
			}
			if err := t.m.send(op.dpid, fm); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.mu.Lock()
			t.m.shadow(sh, op.dpid).Apply(fm)
			sh.mu.Unlock()
			t.m.RolledBackMods.Add(1)
		}
		for _, e := range op.restore {
			fm := restoreFlowMod(e, now)
			if err := t.m.send(op.dpid, fm); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.mu.Lock()
			// Shadow restore preserves the original metadata exactly.
			t.m.shadow(sh, op.dpid).InsertEntry(e)
			if e.PacketCount > 0 || e.ByteCount > 0 {
				key := counterKey{op.dpid, e.Match, e.Priority}
				adj := sh.counters[key]
				adj.packets += e.PacketCount
				adj.bytes += e.ByteCount
				sh.counters[key] = adj
			}
			sh.mu.Unlock()
			t.m.RolledBackMods.Add(1)
		}
	}

	t.m.mu.Lock()
	t.m.rollback--
	t.m.Rollbacks.Add(1)
	dpids := keys(t.dpids)
	t.m.mu.Unlock()
	for _, d := range dpids {
		if err := t.m.sender.Barrier(d); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if journaled && t.m.journal != nil {
		// Written only after the inverse sends and barriers finished: a
		// crash mid-rollback leaves the transaction open in the journal
		// so recovery re-replays the (convergent) inverses.
		t.m.journalAppend(func() error { return t.m.journal.TxnAbort(t.ID) })
	}
	if abortSpan != nil {
		abortSpan.AttrInt("mods", int64(len(ops))).AttrInt("dpids", int64(len(dpids))).End()
	}
	if span != nil {
		span.Attr("state", "aborted").AttrInt("ops", int64(len(ops))).End()
	}
	t.m.flight.Record(flightrec.Record{
		Layer: flightrec.LayerNetLog, Kind: flightrec.KindTxnAbort,
		Trace: t.traceID, Txn: t.ID, N: int64(len(ops)),
		Note: fmt.Sprintf("rolled back across %d switch(es)", len(dpids)),
	})
	return firstErr
}

// SendFault intercepts rollback-path sends (the inverse messages an
// Abort emits). Returning a non-nil error makes that inverse op fail as
// a lost or rejected control message would: the shadow still records
// the undo, the switch never sees it, and the divergence becomes the
// §3.2 residue the counter-cache and resync paths must absorb. The hook
// may also inject side effects first (e.g. disconnecting the target
// switch mid-transaction) before letting the send proceed.
type SendFault func(dpid uint64, msg openflow.Message) error

// SetSendFault installs (or, with nil, removes) a rollback send fault.
// Safe to call while transactions are in flight.
func (m *Manager) SetSendFault(f SendFault) {
	if f == nil {
		m.sendFault.Store(nil)
		return
	}
	m.sendFault.Store(&f)
}

// send forwards one rollback message. The outbound hook sees it while
// m.rollback > 0 and passes it through without journaling.
func (m *Manager) send(dpid uint64, msg openflow.Message) error {
	if fp := m.sendFault.Load(); fp != nil {
		if err := (*fp)(dpid, msg); err != nil {
			return err
		}
	}
	return m.sender.SendMessage(dpid, msg)
}

// restoreFlowMod builds the ADD that resurrects a destroyed entry. The
// hard timeout carries only its unspent budget; the idle timeout is
// reinstated whole (an idle flow's clock restarts, the closest the wire
// protocol allows).
func restoreFlowMod(e *flowtable.Entry, now time.Time) *openflow.FlowMod {
	hard := e.HardTimeout
	if hard > 0 {
		spent := now.Sub(e.Installed)
		remaining := int(hard) - int(spent/time.Second)
		if remaining < 1 {
			remaining = 1 // about to expire: give it the minimum budget
		}
		hard = uint16(remaining)
	}
	return &openflow.FlowMod{
		Match:       e.Match,
		Cookie:      e.Cookie,
		Command:     openflow.FlowModAdd,
		IdleTimeout: e.IdleTimeout,
		HardTimeout: hard,
		Priority:    e.Priority,
		BufferID:    openflow.BufferIDNone,
		OutPort:     openflow.PortNone,
		Flags:       e.Flags,
		Actions:     openflow.CopyActions(e.Actions),
	}
}

// State reports the transaction's lifecycle state.
func (t *Txn) State() TxnState {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.state
}

// Ops reports how many operations the journal holds.
func (t *Txn) Ops() int {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return len(t.ops)
}

// RewriteStats folds cached counters into flow statistics replies, so an
// app reading stats after a rollback sees the counters the flow had
// accumulated before it was (transiently) destroyed.
func (m *Manager) RewriteStats(dpid uint64, reply *openflow.StatsReply) {
	if reply.StatsType != openflow.StatsTypeFlow {
		return
	}
	sh := m.shardOf(dpid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range reply.Flows {
		f := &reply.Flows[i]
		key := counterKey{dpid, f.Match.Normalize(), f.Priority}
		if adj, ok := sh.counters[key]; ok {
			f.PacketCount += adj.packets
			f.ByteCount += adj.bytes
		}
	}
}

// AdjustFlowRemoved folds cached counters into a FlowRemoved message, so
// final accounting survives rollbacks too.
func (m *Manager) AdjustFlowRemoved(dpid uint64, fr *openflow.FlowRemoved) {
	sh := m.shardOf(dpid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	key := counterKey{dpid, fr.Match.Normalize(), fr.Priority}
	if adj, ok := sh.counters[key]; ok {
		fr.PacketCount += adj.packets
		fr.ByteCount += adj.bytes
		delete(sh.counters, key)
	}
}

// CounterCacheSize reports how many counter adjustments are live,
// summed across shards.
func (m *Manager) CounterCacheSize() int {
	total := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		total += len(sh.counters)
		sh.mu.Unlock()
	}
	return total
}

// --- controller.App: shadow maintenance from switch events ---

// Name implements controller.App.
func (m *Manager) Name() string { return "netlog" }

// InlineObserve marks the manager as a controller.InlineObserver: under
// the parallel pipeline it still runs on the dispatch goroutine, before
// any reacting app, preserving the observe-first guarantee its shadow
// maintenance and in-place FlowRemoved correction depend on.
func (m *Manager) InlineObserve() {}

// Subscriptions implements controller.App.
func (m *Manager) Subscriptions() []controller.EventKind {
	return []controller.EventKind{
		controller.EventFlowRemoved,
		controller.EventSwitchUp,
		controller.EventSwitchDown,
	}
}

// HandleEvent implements controller.App: it keeps shadows honest as the
// network evolves on its own (expirations, switch churn) and corrects
// FlowRemoved counters in place before later apps observe them.
func (m *Manager) HandleEvent(ctx controller.Context, ev controller.Event) error {
	switch ev.Kind {
	case controller.EventFlowRemoved:
		fr, ok := ev.Message.(*openflow.FlowRemoved)
		if !ok {
			return nil
		}
		m.AdjustFlowRemoved(ev.DPID, fr)
		sh := m.shardOf(ev.DPID)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		m.shadow(sh, ev.DPID).Apply(&openflow.FlowMod{
			Match:    fr.Match,
			Command:  openflow.FlowModDeleteStrict,
			Priority: fr.Priority,
			BufferID: openflow.BufferIDNone,
			OutPort:  openflow.PortNone,
		})
	case controller.EventSwitchUp:
		m.resetShadow(ev.DPID)
		m.resyncShadow(ctx, ev.DPID)
	case controller.EventSwitchDown:
		// A departing switch invalidates its shadow; a reconnect will
		// resync from flow stats.
		m.resetShadow(ev.DPID)
	}
	return nil
}

func (m *Manager) resetShadow(dpid uint64) {
	sh := m.shardOf(dpid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.shadows, dpid)
	for k := range sh.counters {
		if k.dpid == dpid {
			delete(sh.counters, k)
		}
	}
}

// resyncShadow rebuilds a shadow from the switch's own flow table, so a
// reconnecting switch that kept state across the outage is mirrored
// faithfully. Failures leave the shadow empty; it relearns from writes.
func (m *Manager) resyncShadow(ctx controller.Context, dpid uint64) {
	if ctx == nil {
		return
	}
	reply, err := ctx.RequestStats(dpid, &openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})
	if err != nil {
		return
	}
	now := m.clock.Now()
	shd := m.shardOf(dpid)
	shd.mu.Lock()
	defer shd.mu.Unlock()
	sh := m.shadow(shd, dpid)
	for _, f := range reply.Flows {
		sh.InsertEntry(&flowtable.Entry{
			Match:       f.Match,
			Priority:    f.Priority,
			Cookie:      f.Cookie,
			IdleTimeout: f.IdleTimeout,
			HardTimeout: f.HardTimeout,
			Actions:     f.Actions,
			PacketCount: f.PacketCount,
			ByteCount:   f.ByteCount,
			Installed:   now.Add(-time.Duration(f.DurationSec) * time.Second),
			LastMatched: now,
		})
	}
}

func keys(set map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SyncTouched barriers every switch the transaction has written to, so
// a subsequent invariant check observes all of the transaction's
// effects. Callable only while the transaction is open.
func (t *Txn) SyncTouched() error {
	t.m.mu.Lock()
	if t.state != TxnOpen {
		t.m.mu.Unlock()
		return ErrTxnClosed
	}
	dpids := keys(t.dpids)
	t.m.mu.Unlock()
	for _, d := range dpids {
		if err := t.m.sender.Barrier(d); err != nil {
			return err
		}
	}
	return nil
}
