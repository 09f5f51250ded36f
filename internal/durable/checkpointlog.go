package durable

import (
	"fmt"
	"sync"
	"time"

	"legosdn/internal/checkpoint"
)

// Checkpoint record types. recCheckpoint carries a full state image;
// recCheckpointDelta carries a byte-range patch against the previous
// record's state (checkpoint.EncodeDelta format) plus the base's seq;
// recDrop erases an app's history, so dropped checkpoints cannot
// resurrect from the log after a compaction + restart.
const (
	recCheckpoint      byte = 1
	recCheckpointDelta byte = 2
	recDrop            byte = 3
)

// compactAfterSegments is how many live segments a client WAL may
// accumulate before the next quiet moment triggers a snapshot+compact.
const compactAfterSegments = 3

// CheckpointLog is the checkpoint store's persistent backend: every
// Put is journaled to a WAL and Open replays the log so per-app
// checkpoint histories survive a controller crash or upgrade — the
// state the paper's §3.4 ten-second-upgrade path restores apps from.
//
// Persistence is asynchronous: the store's sink calls only
// enqueue (under the store's lock, which fixes the on-disk order) and
// a single worker goroutine drains the queue in batches, paying one
// fsync per burst and running compactions off the store's lock — so
// one app's fsync or a compaction no longer stalls every other app's
// checkpoint path. Close (and Flush) drain the queue, so a clean
// shutdown loses nothing; a crash can lose only the enqueued tail,
// which is the same window a crash-between-put-and-fsync always had.
//
// The log keeps its own bounded mirror of the histories — always full
// images, reconstructed from deltas as they are appended — so
// compaction can serialize a snapshot without re-entering the store.
type CheckpointLog struct {
	w     *WAL
	store *checkpoint.Store

	// Queue state. Enqueues happen under the store's lock,
	// which serializes them; qmu only protects against the worker.
	qmu     sync.Mutex
	qcond   *sync.Cond
	queue   []sinkOp
	qclosed bool
	wg      sync.WaitGroup

	// mirror duplicates the store's bounded histories for snapshots.
	// Owned by the worker (replay happens before the worker starts).
	mirror    map[string][]checkpoint.Checkpoint
	maxPerApp int

	// restored counts checkpoints replayed from disk at open; skipped
	// counts records replay could not apply (e.g. a delta whose base
	// was lost) and dropped rather than failing recovery.
	restored int
	skipped  int

	// testCompactHook, when set, runs at the start of every compaction —
	// a seam for tests to hold a compaction open while asserting that
	// concurrent Puts are not blocked.
	testCompactHook func()
}

// sinkOp is one queued store event: a checkpoint append, a drop, or a
// flush barrier (flush != nil).
type sinkOp struct {
	cp    checkpoint.Checkpoint
	drop  bool
	app   string
	flush chan struct{}
}

// OpenCheckpointLog opens (or creates) the checkpoint WAL in dir,
// replays it into a fresh store bounded at maxPerApp (<=0 selects the
// store default of 64), and installs itself as the store's sink.
func OpenCheckpointLog(dir string, maxPerApp int, opts Options) (*CheckpointLog, error) {
	if maxPerApp <= 0 {
		maxPerApp = 64
	}
	w, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	l := &CheckpointLog{
		w:         w,
		store:     checkpoint.NewStore(maxPerApp),
		mirror:    make(map[string][]checkpoint.Checkpoint),
		maxPerApp: maxPerApp,
	}
	err = w.Replay(func(rec Record) error {
		switch rec.Type {
		case RecSnapshot:
			return l.replaySnapshot(rec.Payload)
		case recCheckpoint:
			return l.replayCheckpoint(rec.Payload)
		case recCheckpointDelta:
			return l.replayDelta(rec.Payload)
		case recDrop:
			return l.replayDrop(rec.Payload)
		default:
			return fmt.Errorf("durable: unknown checkpoint record type %d", rec.Type)
		}
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	l.store.SetSink(l)
	l.qcond = sync.NewCond(&l.qmu)
	l.wg.Add(1)
	go l.worker()
	return l, nil
}

// Store returns the restored store; every subsequent Put is journaled.
func (l *CheckpointLog) Store() *checkpoint.Store { return l.store }

// Restored reports how many checkpoints the open-time replay loaded;
// SkippedRecords how many records it had to drop as unapplyable.
func (l *CheckpointLog) Restored() int       { return l.restored }
func (l *CheckpointLog) SkippedRecords() int { return l.skipped }

// WAL exposes the underlying log for instrumentation.
func (l *CheckpointLog) WAL() *WAL { return l.w }

// Flush blocks until every sink event enqueued before the call is on
// disk — an explicit durability barrier for tests and benchmarks.
func (l *CheckpointLog) Flush() {
	ch := make(chan struct{})
	l.qmu.Lock()
	if l.qclosed {
		l.qmu.Unlock()
		return
	}
	l.queue = append(l.queue, sinkOp{flush: ch})
	l.qcond.Signal()
	l.qmu.Unlock()
	<-ch
}

// Close drains the queue, then syncs and closes the log. The store
// keeps working in memory.
func (l *CheckpointLog) Close() error {
	l.store.SetSink(nil)
	l.qmu.Lock()
	if !l.qclosed {
		l.qclosed = true
		l.qcond.Broadcast()
	}
	l.qmu.Unlock()
	l.wg.Wait()
	return l.w.Close()
}

// AppendCheckpoint implements checkpoint.Sink. Called under the
// store's lock — which fixes the on-disk order — but it only
// enqueues; the worker does the writing and fsyncing.
func (l *CheckpointLog) AppendCheckpoint(cp checkpoint.Checkpoint) error {
	// The state slice crosses into the worker goroutine; detach it from
	// anything the caller may hold.
	cp.State = append([]byte(nil), cp.State...)
	return l.enqueue(sinkOp{cp: cp})
}

// AppendDrop implements checkpoint.Sink: journal the drop and purge
// the mirror, so compaction cannot resurrect the history.
func (l *CheckpointLog) AppendDrop(app string) error {
	return l.enqueue(sinkOp{drop: true, app: app})
}

func (l *CheckpointLog) enqueue(op sinkOp) error {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.qclosed {
		return fmt.Errorf("durable: checkpoint log closed")
	}
	l.queue = append(l.queue, op)
	l.qcond.Signal()
	return nil
}

// worker drains the queue until Close, batching every op that arrived
// while the previous batch was on disk.
func (l *CheckpointLog) worker() {
	defer l.wg.Done()
	for {
		l.qmu.Lock()
		for len(l.queue) == 0 && !l.qclosed {
			l.qcond.Wait()
		}
		ops := l.queue
		l.queue = nil
		closed := l.qclosed
		l.qmu.Unlock()
		if len(ops) == 0 && closed {
			return
		}
		l.applyOps(ops)
		if closed {
			l.qmu.Lock()
			empty := len(l.queue) == 0
			l.qmu.Unlock()
			if empty {
				return
			}
		}
	}
}

// applyOps writes a drained batch. Records are flushed in sub-batches
// bounded by half a segment so the compaction check between sub-
// batches keeps the invariant that the log never exceeds
// compactAfterSegments+1 live segments.
func (l *CheckpointLog) applyOps(ops []sinkOp) {
	limit := l.w.opts.SegmentBytes / 2
	var pending []sinkOp
	var recs []Record
	var size int64

	flush := func() {
		if len(recs) > 0 {
			if err := l.w.AppendBatch(recs); err != nil {
				l.store.NoteSinkError(err)
			} else {
				for _, op := range pending {
					l.applyMirror(op)
				}
			}
			pending, recs, size = nil, nil, 0
		}
		if l.w.SegmentCount() > compactAfterSegments {
			if err := l.compact(); err != nil {
				l.store.NoteSinkError(err)
			}
		}
	}

	for _, op := range ops {
		if op.flush != nil {
			flush()
			close(op.flush)
			continue
		}
		rec := encodeOp(op)
		frameLen := int64(headerSize + len(rec.Payload))
		if size > 0 && size+frameLen > limit {
			flush()
		}
		pending = append(pending, op)
		recs = append(recs, rec)
		size += frameLen
	}
	flush()
}

func encodeOp(op sinkOp) Record {
	if op.drop {
		return Record{Type: recDrop, Payload: appendString(nil, op.app)}
	}
	cp := op.cp
	payload := appendString(nil, cp.App)
	payload = appendU64(payload, cp.Seq)
	if cp.Delta {
		payload = appendU64(payload, cp.BaseSeq)
		payload = appendI64(payload, cp.Taken.UnixNano())
		payload = appendBytes(payload, cp.State)
		return Record{Type: recCheckpointDelta, Payload: payload}
	}
	payload = appendI64(payload, cp.Taken.UnixNano())
	payload = appendBytes(payload, cp.State)
	return Record{Type: recCheckpoint, Payload: payload}
}

// applyMirror folds one durably-written op into the mirror. Delta
// checkpoints are reconstructed to full images here, so the mirror —
// and therefore every compaction snapshot — is chain-free.
func (l *CheckpointLog) applyMirror(op sinkOp) {
	if op.drop {
		delete(l.mirror, op.app)
		return
	}
	cp := op.cp
	if cp.Delta {
		h := l.mirror[cp.App]
		if len(h) == 0 || h[len(h)-1].Seq != cp.BaseSeq {
			l.store.NoteSinkError(fmt.Errorf("durable: delta checkpoint %s/%d has no base %d in mirror", cp.App, cp.Seq, cp.BaseSeq))
			return
		}
		full, err := checkpoint.ApplyDelta(h[len(h)-1].State, cp.State)
		if err != nil {
			l.store.NoteSinkError(fmt.Errorf("durable: reconstructing delta checkpoint %s/%d: %w", cp.App, cp.Seq, err))
			return
		}
		cp.State, cp.Delta, cp.BaseSeq = full, false, 0
	} else {
		cp.State = append([]byte(nil), cp.State...)
	}
	h := append(l.mirror[cp.App], cp)
	if len(h) > l.maxPerApp {
		h = h[len(h)-l.maxPerApp:]
	}
	l.mirror[cp.App] = h
}

// compact replaces the journal with a snapshot of the bounded mirror:
// the history the store itself retains, which is all recovery can ever
// restore. Snapshots hold only full images, so replaying one never
// depends on delta chains.
func (l *CheckpointLog) compact() error {
	if l.testCompactHook != nil {
		l.testCompactHook()
	}
	apps := make([]string, 0, len(l.mirror))
	for app := range l.mirror {
		apps = append(apps, app)
	}
	// Deterministic snapshot layout for same-seed reproducibility.
	for i := 1; i < len(apps); i++ {
		for j := i; j > 0 && apps[j] < apps[j-1]; j-- {
			apps[j], apps[j-1] = apps[j-1], apps[j]
		}
	}
	snap := appendU32(nil, uint32(len(apps)))
	for _, app := range apps {
		snap = appendString(snap, app)
		h := l.mirror[app]
		snap = appendU32(snap, uint32(len(h)))
		for _, cp := range h {
			snap = appendU64(snap, cp.Seq)
			snap = appendI64(snap, cp.Taken.UnixNano())
			snap = appendBytes(snap, cp.State)
		}
	}
	return l.w.Compact(snap)
}

func (l *CheckpointLog) replaySnapshot(payload []byte) error {
	r := &reader{b: payload}
	napps, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < napps; i++ {
		app, err := r.str()
		if err != nil {
			return err
		}
		ncps, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < ncps; j++ {
			if err := l.restoreOne(app, r); err != nil {
				return err
			}
		}
	}
	return nil
}

func (l *CheckpointLog) replayCheckpoint(payload []byte) error {
	r := &reader{b: payload}
	app, err := r.str()
	if err != nil {
		return err
	}
	return l.restoreOne(app, r)
}

// replayDelta reconstructs a delta record against the mirror's newest
// entry for the app. A delta whose base is missing (history damage) is
// skipped and counted rather than failing the whole recovery: every
// later full image resynchronizes the chain.
func (l *CheckpointLog) replayDelta(payload []byte) error {
	r := &reader{b: payload}
	app, err := r.str()
	if err != nil {
		return err
	}
	seq, err := r.u64()
	if err != nil {
		return err
	}
	baseSeq, err := r.u64()
	if err != nil {
		return err
	}
	takenNano, err := r.i64()
	if err != nil {
		return err
	}
	delta, err := r.bytes()
	if err != nil {
		return err
	}
	h := l.mirror[app]
	if len(h) == 0 || h[len(h)-1].Seq != baseSeq {
		l.skipped++
		return nil
	}
	state, err := checkpoint.ApplyDelta(h[len(h)-1].State, delta)
	if err != nil {
		l.skipped++
		return nil
	}
	taken := time.Unix(0, takenNano)
	l.store.RestorePut(app, seq, state, taken)
	l.applyMirror(sinkOp{cp: checkpoint.Checkpoint{App: app, Seq: seq, State: state, Taken: taken}})
	l.restored++
	return nil
}

func (l *CheckpointLog) replayDrop(payload []byte) error {
	r := &reader{b: payload}
	app, err := r.str()
	if err != nil {
		return err
	}
	l.store.Drop(app)
	delete(l.mirror, app)
	return nil
}

func (l *CheckpointLog) restoreOne(app string, r *reader) error {
	seq, err := r.u64()
	if err != nil {
		return err
	}
	takenNano, err := r.i64()
	if err != nil {
		return err
	}
	state, err := r.bytes()
	if err != nil {
		return err
	}
	taken := time.Unix(0, takenNano)
	l.store.RestorePut(app, seq, state, taken)
	l.applyMirror(sinkOp{cp: checkpoint.Checkpoint{App: app, Seq: seq, State: state, Taken: taken}})
	l.restored++
	return nil
}
