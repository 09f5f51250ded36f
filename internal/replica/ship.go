package replica

import (
	"net"
	"sync"
	"time"

	"legosdn/internal/durable"
	"legosdn/internal/metrics"
)

// Shipper tails the leader's two WALs and streams their records to one
// follower, using the read-only tailing API (TailState /
// OpenSegmentReader) so it never races compaction: a generation change
// is observed atomically with the new segment list and turns into a
// reset frame, after which the follower re-applies from the
// snapshot-headed log. One Shipper per follower; records are shipped in
// log order with contiguous positions, so follower-side dedup is a
// single comparison.
//
// The unit of shipping is a pass, not a frame: a pass takes every
// record past each cursor and writes each stream's frames with one
// Write (more only past flushAt), the NetLog stream first, so a quorum
// wait never queues behind a checkpoint image. The follower answers a
// burst with one cumulative NetLog ack. An idle shipper sleeps until a
// WAL reports a frame written (durable.WAL.Written) — records written
// without a sync of their own wake it exactly like synced ones.
type Shipper struct {
	conn    net.Conn
	streams []*shipStream
	onAck   func(pos uint64)
	buf     []byte // the pass's encoded frames not yet written
	shipped int    // bytes written so far

	scans metrics.Counter // passes of the shipping loop over both streams

	stop chan struct{}
	wg   sync.WaitGroup
}

// shipStream is the shipper's cursor into one WAL.
type shipStream struct {
	id     byte
	wal    *durable.WAL
	inited bool
	gen    uint64
	pos    uint64 // last shipped position
	segs   []uint64
	reader *durable.SegmentReader
}

// NewShipper builds a shipper for one follower connection. onAck (may
// be nil) observes the follower's cumulative NetLog acknowledgments;
// the cluster uses it to drive quorum waits. Call Run to start.
func NewShipper(conn net.Conn, netlogWAL, checkpointWAL *durable.WAL, onAck func(pos uint64)) *Shipper {
	return &Shipper{
		conn: conn,
		streams: []*shipStream{
			{id: streamNetlog, wal: netlogWAL},
			{id: streamCheckpoints, wal: checkpointWAL},
		},
		onAck: onAck,
		stop:  make(chan struct{}),
	}
}

// Run starts the ack reader and the shipping loop. It returns
// immediately; Stop tears both down.
func (s *Shipper) Run() {
	s.wg.Add(2)
	go s.ackLoop()
	go s.shipLoop()
}

// Stop closes the connection, waits for the loops to exit and releases
// the segment readers.
func (s *Shipper) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.conn.Close()
	s.wg.Wait()
	for _, st := range s.streams {
		if st.reader != nil {
			st.reader.Close()
			st.reader = nil
		}
	}
}

func (s *Shipper) ackLoop() {
	defer s.wg.Done()
	for {
		f, err := readFrame(s.conn)
		if err != nil {
			return
		}
		if f.Kind == frameAck && s.onAck != nil {
			s.onAck(f.Pos)
		}
	}
}

// idleRescan is the shipping loop's safety net: an idle shipper looks at
// its WALs again this often even if no wake-up came.
const idleRescan = 100 * time.Millisecond

// flushAt bounds what a pass buffers before writing: a long backlog
// goes out in writes of about this size.
const flushAt = 1 << 20

func (s *Shipper) shipLoop() {
	defer s.wg.Done()
	rescan := time.NewTicker(idleRescan)
	defer rescan.Stop()
	for {
		// Take the wake-ups before scanning: a frame written after the
		// scan has passed its offset closes a channel already in hand,
		// so the wait below cannot sleep through it.
		netlogWritten, checkpointsWritten := s.streams[0].wal.Written(), s.streams[1].wal.Written()
		s.scans.Inc()
		shipped := s.shipped
		for _, st := range s.streams {
			err := s.step(st)
			if err == nil {
				err = s.flush()
			}
			if err != nil {
				return // conn closed: follower gone or Stop
			}
		}
		if s.shipped == shipped {
			select {
			case <-s.stop:
				return
			case <-netlogWritten:
			case <-checkpointsWritten:
			case <-rescan.C:
			}
		}
	}
}

// step advances one stream: resync on generation change, open the next
// segment reader when needed, and queue every record currently
// available for the pass's write.
func (s *Shipper) step(st *shipStream) error {
	ts := st.wal.TailState()
	if !st.inited || ts.Gen != st.gen {
		// New generation (first contact or a compaction): tell the
		// follower to wipe its shadow log and restart at StartPos.
		if st.reader != nil {
			st.reader.Close()
			st.reader = nil
		}
		st.inited, st.gen, st.pos, st.segs = true, ts.Gen, ts.StartPos, ts.Segments
		if err := s.emit(frame{Kind: frameReset, Stream: st.id, Pos: st.pos, Gen: st.gen}); err != nil {
			return err
		}
	}
	if st.reader == nil {
		if len(st.segs) == 0 {
			return nil
		}
		r, err := st.wal.OpenSegmentReader(st.segs[0])
		if err != nil {
			// Compacted between TailState and open (ErrSegmentGone): the
			// next step sees the bumped generation and resyncs.
			return nil
		}
		st.reader = r
	}
	for {
		rec, err := st.reader.Next()
		if err != nil { // io.EOF: no complete record at this offset yet
			if s.advanceSegment(st) {
				continue
			}
			return nil
		}
		st.pos++
		if err := s.emit(frame{
			Kind: frameRecord, Stream: st.id, RecType: rec.Type,
			Pos: st.pos, Gen: st.gen, Payload: rec.Payload,
		}); err != nil {
			return err
		}
	}
}

// emit appends f to the pass's buffer, writing the buffer out once it
// reaches flushAt.
func (s *Shipper) emit(f frame) error {
	s.buf = appendFrame(s.buf, f)
	if len(s.buf) < flushAt {
		return nil
	}
	return s.flush()
}

// flush writes what the pass has buffered with one Write. A buffer that
// a backlog grew past the size of a steady-state pass is not kept: each
// shipper would otherwise hold up to flushAt for its lifetime.
func (s *Shipper) flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	n, err := s.conn.Write(s.buf)
	s.shipped += n
	s.buf = s.buf[:0]
	if cap(s.buf) > recvBuffer {
		s.buf = nil
	}
	return err
}

// advanceSegment moves the cursor past a drained segment when a later
// one exists. A drained *final* segment is just a live tail — stay on
// it. Returns whether the cursor moved.
func (s *Shipper) advanceSegment(st *shipStream) bool {
	ts := st.wal.TailState()
	if ts.Gen != st.gen {
		return false // resync on the next step
	}
	st.segs = ts.Segments
	cur := st.reader.Seq()
	for i, seq := range st.segs {
		if seq == cur {
			if i+1 >= len(st.segs) {
				return false // final segment: keep tailing
			}
			next, err := st.wal.OpenSegmentReader(st.segs[i+1])
			if err != nil {
				return false
			}
			st.reader.Close()
			st.reader = next
			return true
		}
	}
	// Current segment vanished without a generation change observed yet;
	// the next step resyncs.
	return false
}
