package replica

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/durable"
)

// countingConn counts the Write calls made on one end of a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// logBytes concatenates a WAL directory's segment files in order: two
// logs that hold the same records under the same options are equal
// byte for byte, whatever their segments are numbered.
func logBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, seg := range segs { // Glob sorts, and the names are zero-padded
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// passFixture is a leader's two WALs and a follower directory.
type passFixture struct {
	dir        string
	opts       durable.Options
	lead, ckpt *durable.WAL
	acked      atomic.Uint64
}

func newPassFixture(t *testing.T, opts durable.Options) *passFixture {
	t.Helper()
	f := &passFixture{dir: t.TempDir(), opts: opts}
	var err error
	if f.lead, err = durable.Open(filepath.Join(f.dir, "leader"), opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.lead.Close() })
	if f.ckpt, err = durable.Open(filepath.Join(f.dir, "leader-ckpt"), opts); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.ckpt.Close() })
	return f
}

// start runs a shipper and an applier over a pipe whose two ends count
// their writes.
func (f *passFixture) start(t *testing.T) (sh *Shipper, app *Applier, shipConn, applyConn *countingConn) {
	t.Helper()
	a, b := net.Pipe()
	shipConn, applyConn = &countingConn{Conn: a}, &countingConn{Conn: b}
	app, err := NewApplier(filepath.Join(f.dir, "follower"), applyConn, f.opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh = NewShipper(shipConn, f.lead, f.ckpt, func(pos uint64) { f.acked.Store(pos) })
	sh.Run()
	return sh, app, shipConn, applyConn
}

// finish waits for the follower to hold and ack everything, tears the
// pair down and checks that both follower logs equal the leader's.
func (f *passFixture) finish(t *testing.T, sh *Shipper, app *Applier) {
	t.Helper()
	waitFor(t, "follower caught up and acked", func() bool {
		return app.AppliedPos(streamNetlog) >= f.lead.EndPos() &&
			app.AppliedPos(streamCheckpoints) >= f.ckpt.EndPos() &&
			app.Backlog() == 0 && f.acked.Load() >= f.lead.EndPos()
	})
	sh.Stop()
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		leader string
		stream byte
	}{{"leader", streamNetlog}, {"leader-ckpt", streamCheckpoints}} {
		want := logBytes(t, filepath.Join(f.dir, c.leader))
		got := logBytes(t, filepath.Join(f.dir, "follower", streamName(c.stream)))
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("%s: follower log is %d bytes, leader's %d, and they differ", streamName(c.stream), len(got), len(want))
		}
	}
}

// TestPassIsOneWritePerStream: a backlog of 200 small records crosses
// the pipe as one write per stream, and the follower answers it with
// one ack. Shipping a frame at a time made ~200 of each.
func TestPassIsOneWritePerStream(t *testing.T) {
	f := newPassFixture(t, durable.Options{NoSync: true})
	for i := 0; i < 200; i++ {
		w := f.lead
		if i%2 == 1 {
			w = f.ckpt
		}
		if err := w.Append(1, []byte(fmt.Sprintf("record-%03d-%s", i, bytes.Repeat([]byte{'.'}, 100)))); err != nil {
			t.Fatal(err)
		}
	}
	sh, app, shipConn, applyConn := f.start(t)
	f.finish(t, sh, app)
	if n := shipConn.writes.Load(); n > 2 {
		t.Errorf("shipper made %d writes for one pass over two streams, want <= 2", n)
	}
	if n := applyConn.writes.Load(); n > 1 {
		t.Errorf("follower sent %d acks for one pass, want <= 1", n)
	}
}

// TestLargeImageAmongSmallRecords: a 3 MiB checkpoint record, well past
// flushAt and the segment size, among 1 000 small records written while
// the shipper runs, across one compaction of the checkpoint log.
func TestLargeImageAmongSmallRecords(t *testing.T) {
	f := newPassFixture(t, durable.Options{NoSync: true, SegmentBytes: 1 << 20})
	sh, app, _, _ := f.start(t)
	waitFor(t, "first contact", func() bool { return app.Resets() == 2 })
	big := bytes.Repeat([]byte("image"), 3<<20/5)
	for i := 0; i < 1000; i++ {
		payload := []byte(fmt.Sprintf("small-%d", i))
		var err error
		switch {
		case i == 500:
			err = f.ckpt.Compact([]byte("checkpoint-snapshot"))
		case i == 700:
			err = f.ckpt.Append(2, big)
		case i%3 == 0:
			err = f.ckpt.Append(1, payload)
		default:
			err = f.lead.Append(1, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	f.finish(t, sh, app)
	if app.Resets() != 3 {
		t.Fatalf("follower saw %d resets, want first contact's two and the compaction's", app.Resets())
	}
}

// TestDrainWakesOnLastApply: promotion's catch-up returns as the last
// held frame is applied, not on a poll tick, and still gives up once
// its timeout passes.
func TestDrainWakesOnLastApply(t *testing.T) {
	leaderSide, applyConn := net.Pipe()
	app, err := NewApplier(t.TempDir(), applyConn, durable.Options{NoSync: true}, 20*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	go func() {
		for {
			if _, err := readFrame(leaderSide); err != nil {
				return
			}
		}
	}()
	send := func(frames ...frame) {
		t.Helper()
		for _, fr := range frames {
			if err := writeFrame(leaderSide, fr); err != nil {
				t.Fatal(err)
			}
		}
	}
	record := func(pos uint64) frame {
		return frame{Kind: frameRecord, Stream: streamNetlog, RecType: 1, Pos: pos, Payload: []byte{byte(pos)}}
	}

	send(frame{Kind: frameReset, Stream: streamNetlog}, record(1), record(2))
	waitFor(t, "three frames held", func() bool { return app.Backlog() == 3 })
	// A second sleeper on the same broadcast marks the last apply.
	lastApplied := make(chan time.Time, 1)
	go func() {
		app.mu.Lock()
		for app.pending > 0 {
			app.cond.Wait()
		}
		app.mu.Unlock()
		lastApplied <- time.Now()
	}()
	if err := app.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if lag := time.Since(<-lastApplied); lag > time.Millisecond {
		t.Fatalf("Drain returned %v after the last frame was applied", lag)
	}

	send(record(3), record(4), record(5))
	start := time.Now()
	if err := app.Drain(5 * time.Millisecond); err == nil {
		t.Fatal("Drain returned nil with frames held past its timeout")
	}
	if took := time.Since(start); took < 5*time.Millisecond {
		t.Fatalf("Drain gave up after %v, before its timeout", took)
	}
	if err := app.Drain(10 * time.Second); err != nil || app.AppliedPos(streamNetlog) != 5 {
		t.Fatalf("final drain: %v, applied %d; want nil, 5", err, app.AppliedPos(streamNetlog))
	}
	leaderSide.Close()
}
