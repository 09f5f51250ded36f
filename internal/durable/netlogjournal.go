package durable

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"legosdn/internal/netlog"
	"legosdn/internal/openflow"
)

// NetLog journal record types.
const (
	recTxnBegin  byte = 1
	recTxnOp     byte = 2
	recTxnCommit byte = 3
	recTxnAbort  byte = 4
)

// RecoveredInverse is one inverse control message read back from the
// journal: the message that, sent to its switch, erases one journaled
// FlowMod's effects.
type RecoveredInverse struct {
	Mod       *openflow.FlowMod
	Restore   bool
	Installed time.Time
}

// RecoveredOp is one journaled operation's inverse set.
type RecoveredOp struct {
	DPID     uint64
	Inverses []RecoveredInverse
}

// RecoveredTxn is a transaction the journal holds a begin record for
// without a matching commit or abort: the transaction a crash
// interrupted. Its ops must be undone (in reverse order) before new
// events flow.
type RecoveredTxn struct {
	ID  uint64
	Ops []RecoveredOp
}

// NetLogJournal implements netlog.Journal over a WAL. A transaction
// costs one synchronous write: the record that must be durable before a
// FlowMod leaves is the op carrying its inverse, so TxnBegin only notes
// the transaction in memory, the first TxnOp writes begin+op as one
// batch (one sync), later ops are one sync each, and the closing record
// (commit or abort) is a deferred append — in the file at once, durable
// at the next sync point. A transaction closed before its first op
// writes nothing. Recovery presumes abort: a begin without a closing
// record is an orphan whose inverses are replayed, which is also what
// happens to the most recently finished transaction if the machine
// dies before its closing record's sync point.
//
// On open the journal scans the log for orphans; Resolve marks one
// rolled back once its inverses have been replayed. When every
// transaction is resolved the journal self-compacts to a single empty
// snapshot.
type NetLogJournal struct {
	w *WAL

	mu sync.Mutex
	// live holds the transactions begun this incarnation and still open;
	// the value is whether the begin record has been handed to the WAL.
	live    map[uint64]bool
	orphans map[uint64]*RecoveredTxn // interrupted transactions from the previous incarnation
}

// OpenNetLogJournal opens (or creates) the transaction journal in dir
// and scans it for orphans.
func OpenNetLogJournal(dir string, opts Options) (*NetLogJournal, error) {
	w, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	j := &NetLogJournal{
		w:       w,
		live:    make(map[uint64]bool),
		orphans: make(map[uint64]*RecoveredTxn),
	}
	err = w.Replay(func(rec Record) error { return j.replayRecord(rec) })
	if err != nil {
		w.Close()
		return nil, err
	}
	return j, nil
}

// WAL exposes the underlying log for instrumentation.
func (j *NetLogJournal) WAL() *WAL { return j.w }

// Close syncs and closes the journal.
func (j *NetLogJournal) Close() error { return j.w.Close() }

// Orphans returns the interrupted transactions found at open, newest
// first — the order their effects must be unwound in.
func (j *NetLogJournal) Orphans() []RecoveredTxn {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]RecoveredTxn, 0, len(j.orphans))
	for _, t := range j.orphans {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// OpenTxns reports how many transactions are unresolved: live ones
// from this incarnation plus unreplayed orphans.
func (j *NetLogJournal) OpenTxns() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live) + len(j.orphans)
}

// Resolve records that an orphan's inverses have been replayed,
// appending its abort record so a crash during recovery itself stays
// recoverable (the abort is only durable once the replay finished).
func (j *NetLogJournal) Resolve(id uint64) error {
	if err := j.w.Append(recTxnAbort, appendU64(nil, id)); err != nil {
		return err
	}
	j.mu.Lock()
	delete(j.orphans, id)
	j.mu.Unlock()
	j.maybeCompact()
	return nil
}

// --- netlog.Journal ---

// TxnBegin implements netlog.Journal. Nothing is written: the begin
// record rides the first op's sync. Registering the transaction here
// also keeps a concurrent idle-compaction from discarding that batch
// right after it lands.
func (j *NetLogJournal) TxnBegin(id uint64) error {
	j.mu.Lock()
	j.live[id] = false
	j.mu.Unlock()
	return nil
}

// TxnOp implements netlog.Journal. The op is durable when it returns,
// and so is every record written before it — the transaction's begin
// and whichever closing records were deferred since the last sync.
func (j *NetLogJournal) TxnOp(id uint64, op netlog.JournalOp) error {
	payload, err := encodeTxnOp(id, op)
	if err != nil {
		return err
	}
	recs := []Record{{Type: recTxnOp, Payload: payload}}
	j.mu.Lock()
	if begun, known := j.live[id]; known && !begun {
		j.live[id] = true
		recs = []Record{{Type: recTxnBegin, Payload: appendU64(nil, id)}, recs[0]}
	}
	j.mu.Unlock()
	return j.w.AppendBatch(recs)
}

// encodeTxnOp is the op record's payload; decodeOp reads everything after
// the transaction id back.
func encodeTxnOp(id uint64, op netlog.JournalOp) ([]byte, error) {
	payload := appendU64(nil, id)
	payload = appendU64(payload, op.DPID)
	payload = appendU16(payload, uint16(len(op.Inverses)))
	for _, inv := range op.Inverses {
		flags := byte(0)
		if inv.Restore {
			flags = 1
		}
		payload = append(payload, flags)
		payload = appendI64(payload, inv.Installed.UnixNano())
		raw, err := openflow.Encode(inv.Mod)
		if err != nil {
			return nil, fmt.Errorf("durable: encoding inverse flow mod: %w", err)
		}
		payload = appendBytes(payload, raw)
	}
	return payload, nil
}

// TxnCommit implements netlog.Journal.
func (j *NetLogJournal) TxnCommit(id uint64) error {
	return j.closeTxn(recTxnCommit, id)
}

// TxnAbort implements netlog.Journal.
func (j *NetLogJournal) TxnAbort(id uint64) error {
	return j.closeTxn(recTxnAbort, id)
}

func (j *NetLogJournal) closeTxn(rec byte, id uint64) error {
	j.mu.Lock()
	begun, known := j.live[id]
	delete(j.live, id)
	j.mu.Unlock()
	// A transaction whose begin never reached the log has nothing to
	// close.
	if begun || !known {
		if err := j.w.AppendDeferred(rec, appendU64(nil, id)); err != nil {
			return err
		}
	}
	j.maybeCompact()
	return nil
}

// maybeCompact resets the journal to one empty snapshot when nothing
// is open and the log has grown past the segment budget. Resolved
// transactions carry no information forward, so the snapshot is empty.
func (j *NetLogJournal) maybeCompact() {
	j.mu.Lock()
	idle := len(j.live) == 0 && len(j.orphans) == 0
	j.mu.Unlock()
	if idle && j.w.SegmentCount() > compactAfterSegments {
		// Best effort: a failed compaction leaves a bigger but intact log.
		_ = j.w.Compact(nil)
	}
}

// --- open-time replay ---

func (j *NetLogJournal) replayRecord(rec Record) error {
	r := &reader{b: rec.Payload}
	switch rec.Type {
	case RecSnapshot:
		return nil // empty by construction
	case recTxnBegin:
		id, err := r.u64()
		if err != nil {
			return err
		}
		if j.orphans[id] == nil {
			j.orphans[id] = &RecoveredTxn{ID: id}
		}
	case recTxnOp:
		id, err := r.u64()
		if err != nil {
			return err
		}
		t := j.orphans[id]
		if t == nil {
			// Op for an already-closed transaction (commit record was
			// replayed first is impossible — order is begin..op..close —
			// so this is a compaction edge; tolerate it).
			return nil
		}
		op, err := decodeOp(r)
		if err != nil {
			return err
		}
		t.Ops = append(t.Ops, op)
	case recTxnCommit, recTxnAbort:
		id, err := r.u64()
		if err != nil {
			return err
		}
		delete(j.orphans, id)
	default:
		return fmt.Errorf("durable: unknown netlog journal record type %d", rec.Type)
	}
	return nil
}

func decodeOp(r *reader) (RecoveredOp, error) {
	var op RecoveredOp
	dpid, err := r.u64()
	if err != nil {
		return op, err
	}
	op.DPID = dpid
	n, err := r.u16()
	if err != nil {
		return op, err
	}
	for i := 0; i < int(n); i++ {
		if len(r.b) < 1 {
			return op, errShort
		}
		flags := r.b[0]
		r.b = r.b[1:]
		installedNano, err := r.i64()
		if err != nil {
			return op, err
		}
		raw, err := r.bytes()
		if err != nil {
			return op, err
		}
		msg, err := openflow.Decode(raw)
		if err != nil {
			return op, fmt.Errorf("durable: decoding inverse flow mod: %w", err)
		}
		fm, ok := msg.(*openflow.FlowMod)
		if !ok {
			return op, fmt.Errorf("durable: journaled inverse is %T, want *FlowMod", msg)
		}
		inv := RecoveredInverse{Mod: fm, Restore: flags&1 != 0}
		if installedNano != 0 {
			inv.Installed = time.Unix(0, installedNano)
		}
		op.Inverses = append(op.Inverses, inv)
	}
	return op, nil
}
