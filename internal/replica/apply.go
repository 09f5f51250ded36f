package replica

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"legosdn/internal/durable"
	"legosdn/internal/metrics"
)

// Applier is the follower side of one replication connection: it
// receives record/reset frames, acknowledges them on receipt, and
// replays them into shadow WALs under the follower's state directory —
// the same <dir>/netlog and <dir>/checkpoints layout durable.OpenState
// expects, so promotion is just "close the shadow handles, OpenState
// the directory".
//
// One ack answers a burst: once the read buffer has drained what the
// shipper wrote, the applier acks the highest NetLog position received.
// Checkpoint frames are not acked; no wait depends on them. Acks are
// sent on receipt, not on apply: the leader's quorum wait certifies
// that a follower *holds* the record, and a promoted follower drains
// its apply queue (Drain) before serving, so nothing acked can be lost
// short of the follower also dying — the f=1 failure budget a
// 3-replica deployment tolerates. Apply is idempotent: positions at or
// below the last applied one are counted as duplicates and skipped, so
// duplicate segment delivery (a shipper retry after partial failover)
// is harmless. A stream that ends other than by Close is the follower's
// sign of a lost leader: Ended turns true and onEnd runs once.
type Applier struct {
	dir  string
	opts durable.Options

	conn  net.Conn
	onEnd func()

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []frame
	pending int // frames received but not yet applied
	wals    map[byte]*durable.WAL
	last    map[byte]uint64 // last applied position per stream
	recvd   map[byte]uint64 // highest received position per stream
	closed  bool
	ended   bool
	failure error

	dups   metrics.Counter
	resets metrics.Counter

	applyDelay time.Duration // test hook: simulated apply lag
	wg         sync.WaitGroup
}

// NewApplier opens (or creates) the shadow WALs under dir and starts
// the receive and apply loops on conn. applyDelay > 0 delays each
// applied frame — the follower-lag test hook. onEnd (may be nil) runs
// when the stream ends without Close.
func NewApplier(dir string, conn net.Conn, opts durable.Options, applyDelay time.Duration, onEnd func()) (*Applier, error) {
	a := &Applier{
		dir:        dir,
		opts:       opts,
		conn:       conn,
		onEnd:      onEnd,
		wals:       make(map[byte]*durable.WAL),
		last:       make(map[byte]uint64),
		recvd:      make(map[byte]uint64),
		applyDelay: applyDelay,
	}
	a.cond = sync.NewCond(&a.mu)
	for _, id := range []byte{streamNetlog, streamCheckpoints} {
		w, err := durable.Open(a.streamDir(id), opts)
		if err != nil {
			a.closeWALs()
			return nil, fmt.Errorf("replica: opening shadow WAL %s: %w", streamName(id), err)
		}
		a.wals[id] = w
		// A shadow WAL that already holds records (a follower restarting)
		// counts them as applied, so a duplicate prefix re-ship after the
		// reset handshake cannot double-apply. The shipper always opens
		// with a reset frame, which overrides this baseline anyway.
		a.last[id] = w.EndPos()
	}
	a.wg.Add(2)
	go a.recvLoop()
	go a.applyLoop()
	return a, nil
}

func (a *Applier) streamDir(id byte) string {
	return filepath.Join(a.dir, streamName(id))
}

// recvBuffer sizes the read buffer: a pass up to this size is read
// with one call and answered with one ack.
const recvBuffer = 64 << 10

// recvLoop reads frames and enqueues them for apply. Once the read
// buffer runs dry with NetLog frames unacked, it acks the highest
// NetLog position received.
func (a *Applier) recvLoop() {
	defer a.wg.Done()
	defer a.streamEnded()
	r := bufio.NewReaderSize(a.conn, recvBuffer)
	var ack []byte
	unacked := false
	for {
		f, err := readFrame(r)
		if err != nil {
			return
		}
		a.mu.Lock()
		a.queue = append(a.queue, f)
		a.pending++
		if f.Pos > a.recvd[f.Stream] || f.Kind == frameReset {
			a.recvd[f.Stream] = f.Pos
		}
		held := a.recvd[streamNetlog]
		a.cond.Broadcast()
		a.mu.Unlock()
		unacked = unacked || f.Stream == streamNetlog
		if !unacked || r.Buffered() > 0 {
			continue
		}
		// Ack on receipt: the recvLoop is this connection's only writer.
		ack = appendFrame(ack[:0], frame{Kind: frameAck, Stream: streamNetlog, Pos: held})
		if _, err := a.conn.Write(ack); err != nil {
			return
		}
		unacked = false
	}
}

// streamEnded runs when recvLoop stops: unless Close stopped the
// stream, it marks the stream ended and reports it.
func (a *Applier) streamEnded() {
	a.mu.Lock()
	ended := !a.closed
	a.ended = ended
	a.mu.Unlock()
	if ended && a.onEnd != nil {
		a.onEnd()
	}
}

// applyLoop drains the queue into the shadow WALs: everything that
// arrived while the previous write was syncing is taken at once, and
// each run of consecutive records of one stream goes down as one batch
// with one sync. Acks left on receipt, so the leader never waits for
// these syncs — but they share its disk, and one per record was most of
// the disk's work.
func (a *Applier) applyLoop() {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		for len(a.queue) == 0 && !a.closed {
			a.cond.Wait()
		}
		if a.closed && len(a.queue) == 0 {
			a.mu.Unlock()
			return
		}
		batch := a.queue
		a.queue = nil
		a.mu.Unlock()

		for len(batch) > 0 {
			n := 1
			if batch[0].Kind == frameRecord {
				for n < len(batch) && batch[n].Kind == frameRecord && batch[n].Stream == batch[0].Stream {
					n++
				}
			}
			run := batch[:n]
			batch = batch[n:]
			if a.applyDelay > 0 {
				time.Sleep(time.Duration(n) * a.applyDelay)
			}
			var err error
			if run[0].Kind == frameReset {
				err = a.applyReset(run[0])
			} else if run[0].Kind == frameRecord {
				err = a.applyRecords(run)
			}
			a.mu.Lock()
			if err != nil && a.failure == nil {
				a.failure = err
			}
			a.pending -= n
			a.cond.Broadcast()
			a.mu.Unlock()
		}
	}
}

// applyReset starts a new WAL generation: the history this shadow holds
// was replaced by a snapshot (or a new leader started a fresh stream).
// Wipe and restart applying at Pos+1.
func (a *Applier) applyReset(f frame) error {
	a.mu.Lock()
	w := a.wals[f.Stream]
	a.mu.Unlock()
	if w != nil {
		if err := w.Close(); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(a.streamDir(f.Stream)); err != nil {
		return fmt.Errorf("replica: wiping shadow WAL on reset: %w", err)
	}
	nw, err := durable.Open(a.streamDir(f.Stream), a.opts)
	if err != nil {
		return fmt.Errorf("replica: reopening shadow WAL after reset: %w", err)
	}
	a.mu.Lock()
	a.wals[f.Stream] = nw
	a.last[f.Stream] = f.Pos
	a.mu.Unlock()
	a.resets.Inc()
	return nil
}

// applyRecords appends a run of one stream's records to its shadow WAL
// with a single sync, skipping positions already applied.
func (a *Applier) applyRecords(run []frame) error {
	stream := run[0].Stream
	a.mu.Lock()
	w := a.wals[stream]
	last := a.last[stream]
	a.mu.Unlock()
	recs := make([]durable.Record, 0, len(run))
	for _, f := range run {
		if f.Pos <= last {
			a.dups.Inc()
			continue
		}
		last = f.Pos
		recs = append(recs, durable.Record{Type: f.RecType, Payload: f.Payload})
	}
	if len(recs) == 0 {
		return nil
	}
	if w == nil {
		return fmt.Errorf("replica: record for unknown stream %d", stream)
	}
	if err := w.AppendBatch(recs); err != nil {
		return err
	}
	a.mu.Lock()
	a.last[stream] = last
	a.mu.Unlock()
	return nil
}

// Drain blocks until every frame received so far has been applied (or
// the timeout passes). Promotion calls this in the catch-up phase. It
// sleeps on the apply loop's broadcast, not a poll tick; a timer
// broadcasts the deadline.
func (a *Applier) Drain(timeout time.Duration) error {
	expired := false
	t := time.AfterFunc(timeout, func() {
		a.mu.Lock()
		expired = true
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer t.Stop()
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.pending > 0 && !expired {
		a.cond.Wait()
	}
	if a.pending > 0 {
		return fmt.Errorf("replica: %d frame(s) still unapplied after %v", a.pending, timeout)
	}
	return a.failure
}

// Backlog reports frames received but not yet applied.
func (a *Applier) Backlog() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pending
}

// ReceivedPos reports the highest position received on a stream — the
// up-to-dateness measure leader election uses to pick the best
// candidate.
func (a *Applier) ReceivedPos(stream byte) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recvd[stream]
}

// Ended reports whether the stream from the leader ended without Close.
func (a *Applier) Ended() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ended
}

// Close tears the applier down: the connection closes, both loops
// drain and exit, and the shadow WALs are synced shut — leaving the
// directory ready for durable.OpenState (promotion) or a later
// NewApplier (rejoining as a follower of a new leader).
func (a *Applier) Close() error {
	a.mu.Lock()
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
	a.conn.Close()
	a.wg.Wait()
	return a.closeWALs()
}

func (a *Applier) closeWALs() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first error
	for id, w := range a.wals {
		if w == nil {
			continue
		}
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
		a.wals[id] = nil
	}
	return first
}
