package replica

import (
	"errors"
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
// single comparison. An idle shipper sleeps until a WAL reports a frame
// written (durable.WAL.Written) — records written without a sync of
// their own wake it exactly like synced ones.
type Shipper struct {
	conn    net.Conn
	streams []*shipStream
	onAck   func(stream byte, pos uint64)

	resets metrics.Counter
	scans  metrics.Counter // passes of the shipping loop over both streams

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
// be nil) observes follower acknowledgments; the cluster uses it to
// drive quorum waits. Call Run to start.
func NewShipper(conn net.Conn, netlogWAL, checkpointWAL *durable.WAL, onAck func(stream byte, pos uint64)) *Shipper {
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

// Resets reports the generation resyncs sent; Scans the passes the
// shipping loop has made over its streams (an idle shipper makes next
// to none).
func (s *Shipper) Resets() uint64 { return s.resets.Load() }
func (s *Shipper) Scans() uint64  { return s.scans.Load() }

// Run starts the ack reader and the shipping loop. It returns
// immediately; Stop tears both down.
func (s *Shipper) Run() {
	s.wg.Add(2)
	go s.ackLoop()
	go s.shipLoop()
}

// Stop closes the connection and waits for the loops to exit.
func (s *Shipper) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.conn.Close()
	s.wg.Wait()
}

func (s *Shipper) ackLoop() {
	defer s.wg.Done()
	for {
		f, err := readFrame(s.conn)
		if err != nil {
			return
		}
		if f.Kind == frameAck && s.onAck != nil {
			s.onAck(f.Stream, f.Pos)
		}
	}
}

// idleRescan is the shipping loop's safety net: an idle shipper looks at
// its WALs again this often even if no wake-up came.
const idleRescan = 100 * time.Millisecond

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
		progress := false
		for _, st := range s.streams {
			p, err := s.step(st)
			if err != nil {
				return // conn closed: follower gone or Stop
			}
			progress = progress || p
		}
		if !progress {
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
// segment reader when needed, and ship every record currently
// available. Returns whether anything was sent.
func (s *Shipper) step(st *shipStream) (progress bool, err error) {
	ts := st.wal.TailState()
	if !st.inited || ts.Gen != st.gen {
		// New generation (first contact or a compaction): tell the
		// follower to wipe its shadow log and restart at StartPos.
		if st.reader != nil {
			st.reader.Close()
			st.reader = nil
		}
		st.inited, st.gen, st.pos, st.segs = true, ts.Gen, ts.StartPos, ts.Segments
		if err := writeFrame(s.conn, frame{Kind: frameReset, Stream: st.id, Pos: st.pos, Gen: st.gen}); err != nil {
			return false, err
		}
		s.resets.Inc()
		progress = true
	}
	if st.reader == nil {
		if len(st.segs) == 0 {
			return progress, nil
		}
		r, err := st.wal.OpenSegmentReader(st.segs[0])
		if err != nil {
			// Compacted between TailState and open: the next step sees
			// the bumped generation and resyncs.
			if errors.Is(err, durable.ErrSegmentGone) {
				return progress, nil
			}
			return progress, nil
		}
		st.reader = r
	}
	for {
		rec, rerr := st.reader.Next()
		if rerr != nil { // io.EOF: no complete record at this offset yet
			if advanced, err := s.advanceSegment(st); err != nil {
				return progress, err
			} else if advanced {
				continue
			}
			return progress, nil
		}
		st.pos++
		if err := writeFrame(s.conn, frame{
			Kind: frameRecord, Stream: st.id, RecType: rec.Type,
			Pos: st.pos, Gen: st.gen, Payload: rec.Payload,
		}); err != nil {
			return progress, err
		}
		progress = true
	}
}

// advanceSegment moves the cursor past a drained segment when a later
// one exists. A drained *final* segment is just a live tail — stay on
// it. Returns whether the cursor moved.
func (s *Shipper) advanceSegment(st *shipStream) (bool, error) {
	ts := st.wal.TailState()
	if ts.Gen != st.gen {
		return false, nil // resync on the next step
	}
	st.segs = ts.Segments
	cur := st.reader.Seq()
	for i, seq := range st.segs {
		if seq == cur {
			if i+1 >= len(st.segs) {
				return false, nil // final segment: keep tailing
			}
			next, err := st.wal.OpenSegmentReader(st.segs[i+1])
			if err != nil {
				return false, nil
			}
			st.reader.Close()
			st.reader = next
			return true, nil
		}
	}
	// Current segment vanished without a generation change observed yet;
	// the next step resyncs.
	return false, nil
}

// Close releases reader handles (after Stop).
func (s *Shipper) Close() {
	for _, st := range s.streams {
		if st.reader != nil {
			st.reader.Close()
			st.reader = nil
		}
	}
}
