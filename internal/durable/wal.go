// Package durable is LegoSDN's crash-consistent persistence layer: an
// fsync'd, CRC-framed, segment-rotated write-ahead log plus the two
// clients the recovery story needs — a persistent backend for the
// checkpoint store and a transaction journal for NetLog.
//
// The paper's recovery machinery (Crash-Pad checkpoints, NetLog's
// transaction journal) only helps if it survives the failure domain it
// protects. Rollback-recovery surveys (Elnozahy et al.) make the rule
// explicit: the checkpoint and the log must live outside the process
// whose crashes they tolerate. This package moves both onto disk so a
// controller killed mid-transaction restarts from its state directory,
// detects the interrupted transaction, replays its inverse operations
// against the switches, and resumes with checkpoint histories intact —
// which is what the paper's 10-second-upgrade and rollback claims
// assume of the platform.
//
// Layout of a WAL directory:
//
//	wal-00000001.seg
//	wal-00000002.seg        <- appends go to the highest-numbered segment
//
// Each record is framed as
//
//	[u32 length of type+payload] [u32 CRC32-IEEE of type+payload] [u8 type] [payload]
//
// On open the segments are scanned in order. A record that fails its
// CRC or runs past the end of the final segment is a torn tail — the
// write the crash interrupted — and the file is truncated back to the
// last intact record. The same damage in a non-final segment is real
// corruption (a later segment proves more records were once durable)
// and surfaces as ErrCorrupt rather than being silently dropped.
//
// Compact(snapshot) atomically replaces the whole log with a single
// snapshot record: the snapshot is written to a fresh segment, synced,
// and only then are the older segments removed. Replay therefore always
// sees at most one snapshot, as the first record.
package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"legosdn/internal/metrics"
)

// RecSnapshot is the reserved record type Compact writes; client record
// types must be >= 1.
const RecSnapshot byte = 0

// headerSize is the fixed per-record framing overhead.
const headerSize = 4 + 4 + 1 // length + crc + type

// ErrCorrupt reports CRC damage in a non-final segment: records that
// were once durably written (later segments exist) can no longer be
// read, so replay would silently lose committed state.
var ErrCorrupt = fmt.Errorf("durable: corrupt record in non-final WAL segment")

// ErrSegmentGone reports that a segment requested by a tailing reader
// no longer exists: a compaction replaced the log while the tailer was
// between listing segments and opening one. The tailer should call
// TailState again — the generation will have advanced — and resync
// from the snapshot-headed log.
var ErrSegmentGone = fmt.Errorf("durable: WAL segment compacted away")

// Record is one replayed WAL entry.
type Record struct {
	Type    byte
	Payload []byte
}

// Options tunes a WAL.
type Options struct {
	// SegmentBytes is the rotation threshold: an append that would push
	// the current segment past this size opens a new one first
	// (default 4 MiB). Records are never split across segments.
	SegmentBytes int64
	// NoSync skips the fsync after each append. Only for tests and
	// benchmarks — a crash can then lose or tear acknowledged records.
	NoSync bool
	// GroupCommit batches concurrent appends: Append enqueues the frame
	// and a committer goroutine writes every queued frame with a single
	// fsync, amortizing the sync across all appenders that arrived while
	// the previous batch was on disk. Durability is unchanged — Append
	// still returns only after its record is synced — but p50 append
	// latency under concurrency drops from one fsync per record to one
	// per batch.
	GroupCommit bool
}

func (o *Options) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// WAL is an append-only, CRC-framed, segment-rotated log. Safe for
// concurrent use; appends are serialized.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	cur      *os.File // highest-numbered segment, opened for append
	curSeq   uint64
	curSize  int64
	segments []uint64 // ascending segment sequence numbers, curSeq last
	closed   bool

	// Tail-replication coordinates. Positions are 1-based monotonic
	// record counts over this WAL handle's lifetime: the i-th record
	// visible since Open has position i, and the first record of the
	// oldest live segment is always at logStart+1 (Compact advances
	// logStart past everything it discards before writing the snapshot,
	// and Open starts from logStart=0 with totalAppended preloaded to
	// the recovered-record count, which preserves the invariant).
	gen           uint64 // bumped by every Compact
	totalAppended uint64 // position of the newest record (EndPos)
	logStart      uint64 // position just before the oldest live record

	// Open-time recovery facts, for instrumentation.
	recoveredRecords int
	truncatedBytes   int64

	// written, when non-nil, is closed by the next frame written: the
	// wake-up tailers wait on instead of polling. Allocated on demand by
	// Written, so a WAL nobody tails pays nothing.
	written chan struct{}

	appends  metrics.Counter
	bytes    metrics.Counter // framed bytes written (what each fsync pays for)
	commits  metrics.Counter // append-path sync points (batches, not records)
	deferred metrics.Counter // records written by AppendDeferred
	fsyncDur *metrics.Histogram

	// Group-commit state, used only when opts.GroupCommit is set. The
	// queue has its own lock so enqueueing never waits on an in-flight
	// write+fsync (which holds mu).
	gcMu     sync.Mutex
	gcCond   *sync.Cond
	gcQueue  []*gcReq
	gcClosed bool
	gcWG     sync.WaitGroup
}

// gcReq is one appender's batch waiting for the committer. done is
// closed once every frame is written and synced (or failed); err then
// holds the outcome.
type gcReq struct {
	frames [][]byte
	err    error
	done   chan struct{}
}

// Open opens (or creates) the WAL in dir, scanning existing segments
// for integrity and truncating a torn tail.
func Open(dir string, opts Options) (*WAL, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: creating WAL dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	if err := w.scan(); err != nil {
		return nil, err
	}
	w.totalAppended = uint64(w.recoveredRecords)
	if len(w.segments) == 0 {
		if err := w.openSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		seq := w.segments[len(w.segments)-1]
		f, err := os.OpenFile(w.segmentPath(seq), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("durable: opening segment for append: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		w.cur, w.curSeq, w.curSize = f, seq, st.Size()
	}
	if w.opts.GroupCommit {
		w.gcCond = sync.NewCond(&w.gcMu)
		w.gcWG.Add(1)
		go w.committer()
	}
	return w, nil
}

// Instrument registers the WAL's fsync-latency histogram and append
// counter, labeled with name, plus gauges for the open-time recovery
// facts (records replayed, torn-tail bytes truncated, live segments).
func (w *WAL) Instrument(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	label := fmt.Sprintf("{wal=%q}", name)
	reg.RegisterCounter("legosdn_durable_appends_total"+label, "records appended to the WAL", &w.appends)
	reg.RegisterCounter("legosdn_durable_appended_bytes_total"+label, "framed bytes written to the WAL", &w.bytes)
	reg.RegisterCounter("legosdn_durable_commits_total"+label, "append-path sync batches (one fsync each)", &w.commits)
	reg.RegisterCounter("legosdn_durable_deferred_records_total"+label,
		"records written without a sync of their own (durable at the next sync point)", &w.deferred)
	w.fsyncDur = reg.Histogram("legosdn_durable_fsync_seconds"+label,
		"latency of one fsync on the WAL append path", nil)
	reg.RegisterGaugeFunc("legosdn_durable_recovered_records"+label,
		"records replayed from disk at open", func() float64 { return float64(w.recoveredRecords) })
	reg.RegisterGaugeFunc("legosdn_durable_truncated_bytes"+label,
		"torn-tail bytes truncated at open", func() float64 { return float64(w.truncatedBytes) })
	reg.RegisterGaugeFunc("legosdn_durable_segments"+label,
		"live WAL segments", func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			return float64(len(w.segments))
		})
}

// RecoveredRecords reports how many intact records the open-time scan
// found; TruncatedBytes how many torn-tail bytes it discarded.
func (w *WAL) RecoveredRecords() int { return w.recoveredRecords }
func (w *WAL) TruncatedBytes() int64 { return w.truncatedBytes }

// AppendedBytes reports the framed bytes written since open — the
// volume each sync point pays for. Commits reports the number of
// append-path sync batches; appends/commits is the group-commit
// amortization factor.
func (w *WAL) AppendedBytes() uint64 { return w.bytes.Load() }
func (w *WAL) Commits() uint64       { return w.commits.Load() }

// DeferredRecords reports how many records AppendDeferred has written.
func (w *WAL) DeferredRecords() uint64 { return w.deferred.Load() }

// SegmentCount reports the number of live segment files.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

func (w *WAL) segmentPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// scan lists segments, verifies them in order, and truncates a torn
// final record. Called once from Open, before any appends.
func (w *WAL) scan() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for i, seq := range seqs {
		final := i == len(seqs)-1
		good, total, n, err := verifySegment(w.segmentPath(seq))
		if err != nil {
			return err
		}
		w.recoveredRecords += n
		if good < total {
			if !final {
				return fmt.Errorf("%w: %s offset %d", ErrCorrupt, w.segmentPath(seq), good)
			}
			// Torn tail: the append a crash interrupted. Drop it.
			w.truncatedBytes = total - good
			if err := os.Truncate(w.segmentPath(seq), good); err != nil {
				return fmt.Errorf("durable: truncating torn tail: %w", err)
			}
		}
	}
	w.segments = seqs
	return nil
}

// verifySegment returns the byte offset of the last intact record's
// end, the file size, and the count of intact records.
func verifySegment(path string) (good, total int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	total = st.Size()
	var hdr [headerSize]byte
	buf := make([]byte, 0, 4096)
	for good < total {
		if _, err := io.ReadFull(f, hdr[:8]); err != nil {
			return good, total, records, nil // short header: torn
		}
		length := binary.BigEndian.Uint32(hdr[:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if length == 0 || int64(length) > total-good-8 {
			return good, total, records, nil // impossible length: torn
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		body := buf[:length]
		if _, err := io.ReadFull(f, body); err != nil {
			return good, total, records, nil
		}
		if crc32.ChecksumIEEE(body) != crc {
			return good, total, records, nil // CRC mismatch: torn or corrupt
		}
		good += 8 + int64(length)
		records++
	}
	return good, total, records, nil
}

// Replay reads every intact record in order (oldest segment first) and
// hands it to fn. The payload slice is only valid during the call. A
// non-nil error from fn stops the replay.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	segs := append([]uint64(nil), w.segments...)
	w.mu.Unlock()
	for _, seq := range segs {
		if err := replaySegment(w.segmentPath(seq), fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [8]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return nil // clean EOF or torn tail already truncated at Open
		}
		length := binary.BigEndian.Uint32(hdr[:4])
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		body := buf[:length]
		if _, err := io.ReadFull(f, body); err != nil {
			return nil
		}
		if crc32.ChecksumIEEE(body) != crc || length == 0 {
			return nil
		}
		if err := fn(Record{Type: body[0], Payload: body[1:]}); err != nil {
			return err
		}
	}
}

// Append durably writes one record: frame, write, fsync (unless
// NoSync). The record is on disk when Append returns. With GroupCommit
// the frame rides the committer's next batch — same durability, one
// fsync shared with every concurrent appender.
func (w *WAL) Append(typ byte, payload []byte) error {
	if w.opts.GroupCommit {
		return w.submit([][]byte{frameRecord(typ, payload)})
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(typ, payload)
}

// AppendBatch durably writes the records in order with a single sync
// at the end, so a caller flushing a burst pays one fsync instead of
// len(recs). Either the whole batch is acknowledged or an error is
// returned; after a crash, replay may see any prefix of the batch but
// never a torn interior record (each record carries its own CRC).
func (w *WAL) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	frames := make([][]byte, len(recs))
	for i, r := range recs {
		frames[i] = frameRecord(r.Type, r.Payload)
	}
	if w.opts.GroupCommit {
		return w.submit(frames)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: WAL closed")
	}
	for _, f := range frames {
		if err := w.writeFrameLocked(f); err != nil {
			return err
		}
	}
	return w.syncLocked()
}

// AppendDeferred writes one record without a sync of its own. The frame
// goes to the segment file before AppendDeferred returns — written, not
// buffered — so tailing readers see it at once and it survives the
// death of the process; what it does not yet survive is the machine
// losing power. The next sync point on this WAL (any Append or
// AppendBatch, a rotation, Compact, Sync, Close) makes it durable along
// with everything before it in the file. For records whose loss
// recovery tolerates, such as the closing record of a transaction whose
// write-ahead record is already durable.
func (w *WAL) AppendDeferred(typ byte, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: WAL closed")
	}
	if err := w.writeFrameLocked(frameRecord(typ, payload)); err != nil {
		return err
	}
	w.deferred.Inc()
	return nil
}

func (w *WAL) appendLocked(typ byte, payload []byte) error {
	if w.closed {
		return fmt.Errorf("durable: WAL closed")
	}
	if err := w.writeFrameLocked(frameRecord(typ, payload)); err != nil {
		return err
	}
	return w.syncLocked()
}

// writeFrameLocked rotates if needed and writes one framed record —
// no sync; the caller chooses the durability point.
func (w *WAL) writeFrameLocked(frame []byte) error {
	if w.curSize > 0 && w.curSize+int64(len(frame)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := w.cur.Write(frame); err != nil {
		return fmt.Errorf("durable: appending record: %w", err)
	}
	w.curSize += int64(len(frame))
	w.totalAppended++
	w.appends.Add(1)
	w.bytes.Add(uint64(len(frame)))
	w.wakeLocked()
	return nil
}

// wakeLocked releases everyone waiting on the channel Written handed
// out.
func (w *WAL) wakeLocked() {
	if w.written != nil {
		close(w.written)
		w.written = nil
	}
}

// submit hands frames to the committer goroutine and waits for the
// batch containing them to reach disk.
func (w *WAL) submit(frames [][]byte) error {
	req := &gcReq{frames: frames, done: make(chan struct{})}
	w.gcMu.Lock()
	if w.gcClosed {
		w.gcMu.Unlock()
		return fmt.Errorf("durable: WAL closed")
	}
	w.gcQueue = append(w.gcQueue, req)
	w.gcCond.Signal()
	w.gcMu.Unlock()
	<-req.done
	return req.err
}

// committer drains the group-commit queue: every request queued while
// the previous batch was being written+synced is collected and paid
// for with a single fsync. Runs until Close; drains remaining requests
// before exiting.
func (w *WAL) committer() {
	defer w.gcWG.Done()
	for {
		w.gcMu.Lock()
		for len(w.gcQueue) == 0 && !w.gcClosed {
			w.gcCond.Wait()
		}
		batch := w.gcQueue
		w.gcQueue = nil
		stop := w.gcClosed
		w.gcMu.Unlock()
		if len(batch) == 0 {
			return // closed with nothing pending
		}

		w.mu.Lock()
		var werr error
		if w.closed {
			werr = fmt.Errorf("durable: WAL closed")
		}
		for _, req := range batch {
			if werr == nil {
				for _, f := range req.frames {
					if werr = w.writeFrameLocked(f); werr != nil {
						break
					}
				}
			}
			req.err = werr
		}
		// Sync even when a later write failed: requests written before
		// the failure must still be made durable before they are acked.
		if !w.closed {
			if serr := w.syncLocked(); serr != nil {
				for _, req := range batch {
					if req.err == nil {
						req.err = serr
					}
				}
			}
		}
		w.mu.Unlock()
		for _, req := range batch {
			close(req.done)
		}
		if stop {
			// One final drain pass in case requests slipped in between
			// the queue grab and gcClosed being observed by submitters.
			w.gcMu.Lock()
			empty := len(w.gcQueue) == 0
			w.gcMu.Unlock()
			if empty {
				return
			}
		}
	}
}

func frameRecord(typ byte, payload []byte) []byte {
	body := make([]byte, 1+len(payload))
	body[0] = typ
	copy(body[1:], payload)
	frame := make([]byte, 8+len(body))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	copy(frame[8:], body)
	return frame
}

func (w *WAL) syncLocked() error {
	w.commits.Inc()
	if w.opts.NoSync {
		return nil
	}
	start := time.Now()
	err := w.cur.Sync()
	w.fsyncDur.ObserveSince(start)
	if err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	return nil
}

// rotateLocked closes the current segment and opens the next.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.cur.Close(); err != nil {
		return err
	}
	return w.openSegmentLocked(w.curSeq + 1)
}

func (w *WAL) openSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(w.segmentPath(seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening segment: %w", err)
	}
	w.cur, w.curSeq, w.curSize = f, seq, 0
	w.segments = append(w.segments, seq)
	w.syncDir()
	return nil
}

// syncDir makes segment creations/removals durable. Best effort: some
// filesystems reject directory fsync.
func (w *WAL) syncDir() {
	if w.opts.NoSync {
		return
	}
	if d, err := os.Open(w.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Compact atomically replaces the entire log with one snapshot record
// (type RecSnapshot) holding the client's serialized state; snapshot
// may be nil for clients whose resolved history needs no carrying
// forward. Appends racing a compaction simply block and land after the
// snapshot.
func (w *WAL) Compact(snapshot []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("durable: WAL closed")
	}
	old := append([]uint64(nil), w.segments...)
	if err := w.syncLocked(); err != nil {
		return err
	}
	if err := w.cur.Close(); err != nil {
		return err
	}
	w.segments = nil
	// Everything before the snapshot is gone from the log; tailers must
	// resync. Advance the start position first so the snapshot lands at
	// logStart+1, then bump the generation so TailState exposes the
	// change atomically with the new segment list.
	w.logStart = w.totalAppended
	w.gen++
	if err := w.openSegmentLocked(w.curSeq + 1); err != nil {
		return err
	}
	if err := w.appendLocked(RecSnapshot, snapshot); err != nil {
		return err
	}
	// The snapshot is durable; the history it replaces can go.
	for _, seq := range old {
		if err := os.Remove(w.segmentPath(seq)); err != nil {
			return fmt.Errorf("durable: removing compacted segment: %w", err)
		}
	}
	w.syncDir()
	return nil
}

// Sync flushes the current segment to disk (useful with NoSync for
// explicit durability points).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	start := time.Now()
	err := w.cur.Sync()
	w.fsyncDur.ObserveSince(start)
	return err
}

// Close syncs and closes the WAL. Further appends fail. With
// GroupCommit the committer first drains every queued append, so
// records acknowledged (or in flight) before Close reach disk.
func (w *WAL) Close() error {
	if w.opts.GroupCommit {
		w.gcMu.Lock()
		if !w.gcClosed {
			w.gcClosed = true
			w.gcCond.Broadcast()
		}
		w.gcMu.Unlock()
		w.gcWG.Wait()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if !w.opts.NoSync {
		_ = w.cur.Sync()
	}
	return w.cur.Close()
}

// --- Read-only tailing API -------------------------------------------
//
// Followers replicating this WAL need to read segments while the owner
// keeps appending and occasionally compacting. The contract:
//
//   - TailState returns (generation, start position, segment list) as
//     one atomic observation. Compact bumps the generation, so a tailer
//     that sees the generation change knows its cursor is invalid and
//     must restart from the snapshot-headed log.
//   - OpenSegmentReader opens a listed segment under the WAL lock, so
//     it can never race a concurrent Compact's unlink: either the
//     segment is still listed (and therefore still on disk) or the call
//     fails with ErrSegmentGone.
//   - SegmentReader.Next tolerates a torn tail: a partial frame at the
//     end of a live segment (an append in flight) reads as io.EOF
//     without advancing, so the next scan retries from the same offset
//     and sees the completed record.
//   - Written is the wake-up that replaces polling: a tailer takes the
//     channel, scans, and only then waits on it. Every frame written
//     after the channel was taken closes it — compaction included, its
//     snapshot is a frame — so a record that lands behind the scan's
//     back cannot be slept through.

// Written returns a channel that is closed as soon as another frame is
// written to the log. Take it before scanning.
func (w *WAL) Written() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.written == nil {
		w.written = make(chan struct{})
	}
	return w.written
}

// Generation reports how many times this WAL has been compacted since
// open. A tailer whose cached generation differs must resync.
func (w *WAL) Generation() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.gen
}

// EndPos reports the position of the newest record: 1-based, monotonic
// over the handle's lifetime, counting recovered records. A replication
// quorum wait is "followers acked >= EndPos()".
func (w *WAL) EndPos() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.totalAppended
}

// Segments returns the live segment sequence numbers, ascending.
func (w *WAL) Segments() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]uint64(nil), w.segments...)
}

// TailState is one atomic observation of the log's replication
// coordinates: the first record of Segments[0] is at StartPos+1, and a
// Gen change means the log was compacted and StartPos moved.
type TailState struct {
	Gen      uint64
	StartPos uint64
	Segments []uint64
}

// TailState returns the current generation, start position, and segment
// list under one lock acquisition.
func (w *WAL) TailState() TailState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return TailState{
		Gen:      w.gen,
		StartPos: w.logStart,
		Segments: append([]uint64(nil), w.segments...),
	}
}

// SegmentReader iterates one segment's records from the start,
// tolerating a torn or still-being-written tail. The open file keeps
// the data readable even if a later Compact unlinks the segment; the
// reader just stops seeing new records.
type SegmentReader struct {
	f   *os.File
	seq uint64
	off int64
	buf []byte
}

// OpenSegmentReader opens seq for tailing. The check-and-open happens
// under the WAL lock — the same lock Compact holds while unlinking —
// so a listed segment cannot disappear between the membership check and
// the open. Returns ErrSegmentGone if seq is no longer live.
func (w *WAL) OpenSegmentReader(seq uint64) (*SegmentReader, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	live := false
	for _, s := range w.segments {
		if s == seq {
			live = true
			break
		}
	}
	if !live {
		return nil, fmt.Errorf("%w: wal-%08d.seg", ErrSegmentGone, seq)
	}
	f, err := os.Open(w.segmentPath(seq))
	if err != nil {
		return nil, fmt.Errorf("durable: opening segment for tailing: %w", err)
	}
	return &SegmentReader{f: f, seq: seq}, nil
}

// Seq reports which segment this reader iterates.
func (r *SegmentReader) Seq() uint64 { return r.seq }

// Next returns the next intact record, or io.EOF when no complete
// record is available at the current offset. io.EOF is retryable: a
// frame still being written (short header, short body, CRC not yet
// matching) does not advance the offset, so a later Next sees the
// completed record. The payload is only valid until the next call.
func (r *SegmentReader) Next() (Record, error) {
	var hdr [8]byte
	if _, err := r.f.ReadAt(hdr[:], r.off); err != nil {
		return Record{}, io.EOF
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	crc := binary.BigEndian.Uint32(hdr[4:8])
	if length == 0 {
		return Record{}, io.EOF
	}
	if cap(r.buf) < int(length) {
		r.buf = make([]byte, length)
	}
	body := r.buf[:length]
	if _, err := r.f.ReadAt(body, r.off+8); err != nil {
		return Record{}, io.EOF
	}
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, io.EOF
	}
	r.off += 8 + int64(length)
	return Record{Type: body[0], Payload: body[1:]}, nil
}

// Close releases the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }
