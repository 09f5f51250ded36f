package replica

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/durable"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
)

// The shipper and the quorum wait sleep on wake-ups, not poll
// intervals. These tests pin that no wake-up is lost (a follower ends
// identical to a leader written by many goroutines through every entry
// point, across a compaction), that idle means idle, and that the
// quorum wait's only clocks are the ack and QuorumTimeout.

// startPair wires a shipper on (lead, ckpt) to an applier in dir.
func startPair(t *testing.T, dir string, lead, ckpt *durable.WAL, opts durable.Options, applyDelay time.Duration) (*Shipper, *Applier) {
	t.Helper()
	shipConn, applyConn := net.Pipe()
	app, err := NewApplier(dir, applyConn, opts, applyDelay)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(shipConn, lead, ckpt, nil)
	sh.Run()
	return sh, app
}

func TestShipperFollowsConcurrentWritersAcrossCompaction(t *testing.T) {
	const writers, perWriter = 4, 2500
	dir := t.TempDir()
	opts := durable.Options{NoSync: true, GroupCommit: true, SegmentBytes: 32 << 10}
	lead, err := durable.Open(filepath.Join(dir, "leader"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	ckpt, err := durable.Open(filepath.Join(dir, "leader-ckpt"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	sh, app := startPair(t, filepath.Join(dir, "follower"), lead, ckpt, opts, 0)
	// The compaction must find the shipper mid-stream, not before its
	// first look at the log.
	waitFor(t, "first contact", func() bool { return app.Resets() == 2 })

	var written atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, k := 0, 0; i < perWriter; k++ {
				payload := []byte(fmt.Sprintf("w%d-%d", g, i))
				var err error
				switch k % 3 {
				case 0:
					err = lead.AppendDeferred(2, payload)
					i++
				case 1:
					err = lead.Append(1, payload)
					i++
				default:
					err = lead.AppendBatch([]durable.Record{{Type: 1, Payload: payload}, {Type: 3, Payload: payload}})
					i += 2
				}
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				// One compaction, in the middle, from whichever writer
				// gets there: the shipper must resync behind it.
				if written.Add(1) == writers*perWriter/4 {
					if err := lead.Compact([]byte("snapshot")); err != nil {
						t.Errorf("compact: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if lead.Generation() != 1 {
		t.Fatalf("leader compacted %d times, want once", lead.Generation())
	}

	waitFor(t, "follower caught up", func() bool {
		return app.AppliedPos(streamNetlog) >= lead.EndPos() && app.Backlog() == 0
	})
	if app.Dups() != 0 {
		t.Errorf("shipper sent %d positions twice", app.Dups())
	}
	if app.Resets() != 3 { // first contact on both streams, then the compaction
		t.Errorf("follower saw %d resets, want first contact's two and the compaction's", app.Resets())
	}
	sh.Stop()
	sh.Close()
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}

	shadow, err := durable.Open(filepath.Join(dir, "follower", "netlog"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()
	got, want := walRecords(t, shadow), walRecords(t, lead)
	if len(got) != len(want) {
		t.Fatalf("follower has %d records, leader %d", len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d diverges: follower %d/%q, leader %d/%q",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
		key := fmt.Sprintf("%d/%s", got[i].Type, got[i].Payload)
		if seen[key] {
			t.Fatalf("record %s reached the follower's log twice", key)
		}
		seen[key] = true
	}
}

// TestIdleShipperSleeps: with nothing written, the shipping loop passes
// over its WALs on the fallback timer only. The 500 µs poll this
// replaced made about 400 passes in the same 200 ms.
func TestIdleShipperSleeps(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{NoSync: true}
	lead, err := durable.Open(filepath.Join(dir, "leader"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer lead.Close()
	ckpt, err := durable.Open(filepath.Join(dir, "leader-ckpt"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	sh, app := startPair(t, filepath.Join(dir, "follower"), lead, ckpt, opts, 0)
	defer app.Close()
	defer func() { sh.Stop(); sh.Close() }()

	waitFor(t, "first contact", func() bool { return app.Resets() == 2 })
	time.Sleep(10 * time.Millisecond) // the pass after the resets finds nothing and sleeps
	before := sh.Scans()
	time.Sleep(200 * time.Millisecond)
	if idle := sh.Scans() - before; idle > 4 {
		t.Fatalf("idle shipper made %d passes in 200 ms", idle)
	}

	// And it is asleep, not dead: one record, written without a sync of
	// its own, gets there well inside the fallback interval.
	start := time.Now()
	if err := lead.AppendDeferred(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "deferred record shipped", func() bool { return app.AppliedPos(streamNetlog) == 1 })
	if took := time.Since(start); took > idleRescan/2 {
		t.Fatalf("a deferred record took %v to reach the follower; the wake-up was missed", took)
	}
}

// quorumFixture is a cluster with nodes but nothing running: waitQuorum
// and noteAck against hand-fed acknowledgements.
func quorumFixture(timeout time.Duration) *Cluster {
	c := New(Options{Replicas: 3, QuorumTimeout: timeout})
	for _, name := range []string{"node0", "node1", "node2"} {
		c.nodes = append(c.nodes, &node{name: name, alive: true})
	}
	c.leader = c.nodes[0]
	return c
}

func (c *Cluster) waiterAsleep() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ackWake != nil
}

// TestWaitQuorumWakesOnAck: the wait has no poll interval to elapse —
// with QuorumTimeout a minute away, only the acknowledgement itself can
// have ended it.
func TestWaitQuorumWakesOnAck(t *testing.T) {
	c := quorumFixture(time.Minute)
	done := make(chan error, 1)
	go func() { done <- c.waitQuorum(7) }()
	waitFor(t, "waiter asleep", c.waiterAsleep)

	c.noteAck("node1", 6) // short of the position: recount, sleep again
	waitFor(t, "waiter asleep again", c.waiterAsleep)
	select {
	case err := <-done:
		t.Fatalf("wait for position 7 ended on an ack of 6: %v", err)
	default:
	}

	start := time.Now()
	c.noteAck("node2", 7)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waitQuorum slept through the acknowledgement")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("woken %v after the acknowledgement", took)
	}
	if c.QuorumTimeouts() != 0 {
		t.Fatalf("%d quorum timeouts", c.QuorumTimeouts())
	}
	// Already held: no sleep at all.
	if err := c.waitQuorum(7); err != nil || c.waiterAsleep() {
		t.Fatalf("wait for a held position: %v, asleep=%v", err, c.waiterAsleep())
	}
}

func TestWaitQuorumStillTimesOut(t *testing.T) {
	c := quorumFixture(30 * time.Millisecond)
	c.noteAck("node1", 3)
	start := time.Now()
	err := c.waitQuorum(4)
	if err == nil || c.QuorumTimeouts() != 1 {
		t.Fatalf("err=%v, %d timeouts; want an error and 1", err, c.QuorumTimeouts())
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("gave up after %v, before QuorumTimeout", took)
	}
}

// TestQuorumWriteTimesOutWhenFollowersAreCut runs the real thing: a
// quorum cluster whose follower connections drop degrades the next
// journaled operation to a journal error after QuorumTimeout, counts
// it, and keeps serving. The strict registry doubles as the
// duplicate-name gate for the cluster's own instruments.
func TestQuorumWriteTimesOutWhenFollowersAreCut(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetStrict(true)
	c := startCluster(t, netsim.Single(2, nil), func(o *Options) {
		o.QuorumTimeout = 100 * time.Millisecond
		o.Metrics = reg
	})
	defer c.Close()
	injectN(t, c, 3)
	stack := c.Stack()
	if c.QuorumTimeouts() != 0 || stack.NetLog.JournalErrors.Load() != 0 {
		t.Fatalf("healthy cluster: %d quorum timeouts, %d journal errors", c.QuorumTimeouts(), stack.NetLog.JournalErrors.Load())
	}

	c.mu.Lock()
	for _, nd := range c.nodes {
		if nd.applier != nil {
			nd.applier.conn.Close()
		}
	}
	c.mu.Unlock()
	injectN(t, c, 1)
	if c.QuorumTimeouts() != 1 || stack.NetLog.JournalErrors.Load() != 1 {
		t.Fatalf("after the cut: %d quorum timeouts, %d journal errors; want 1 and 1", c.QuorumTimeouts(), stack.NetLog.JournalErrors.Load())
	}

	if dups := reg.Duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate metric registrations: %v", dups)
	}
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	// Four events journaled one op each; each op waited once.
	if !strings.Contains(text.String(), "legosdn_replica_quorum_wait_seconds_count 4") {
		t.Fatalf("/metrics lacks the quorum-wait histogram with 4 waits:\n%s", text.String())
	}
}

// TestApplierBatchesWhatQueuedUp: records that arrive while the apply
// loop is busy go down in one batch with one sync, in order, and the
// duplicate among them is still skipped.
func TestApplierBatchesWhatQueuedUp(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{NoSync: true}
	leaderSide, applyConn := net.Pipe()
	// The reset's delay holds the apply loop while the records queue up.
	app, err := NewApplier(dir, applyConn, opts, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := readFrame(leaderSide); err != nil {
				return
			}
		}
	}()
	const records = 40
	frames := []frame{
		{Kind: frameReset, Stream: streamNetlog},
		{Kind: frameReset, Stream: streamCheckpoints},
	}
	for pos := uint64(1); pos <= records; pos++ {
		frames = append(frames, frame{Kind: frameRecord, Stream: streamNetlog, RecType: 1, Pos: pos, Payload: []byte{byte(pos)}})
		if pos == 10 {
			frames = append(frames, frames[len(frames)-1]) // delivered twice
		}
	}
	frames = append(frames, frame{Kind: frameRecord, Stream: streamCheckpoints, RecType: 1, Pos: 1, Payload: []byte("c")})
	for _, f := range frames {
		if err := writeFrame(leaderSide, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := app.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.AppliedPos(streamNetlog) != records || app.AppliedPos(streamCheckpoints) != 1 || app.Dups() != 1 {
		t.Fatalf("applied %d/%d, %d dups; want %d/1, 1", app.AppliedPos(streamNetlog), app.AppliedPos(streamCheckpoints), app.Dups(), records)
	}
	app.mu.Lock()
	syncs := app.wals[streamNetlog].Commits()
	app.mu.Unlock()
	if syncs > records/4 {
		t.Errorf("%d records took %d syncs", records, syncs)
	}
	leaderSide.Close()
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	shadow, err := durable.Open(filepath.Join(dir, "netlog"), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()
	recs := walRecords(t, shadow)
	if len(recs) != records {
		t.Fatalf("shadow log holds %d records, want %d", len(recs), records)
	}
	for i, rec := range recs {
		if rec.Payload[0] != byte(i+1) {
			t.Fatalf("record %d of the shadow log is %d", i, rec.Payload[0])
		}
	}
}

// TestKillLeaderRepeatedly is the regression for "close of closed
// channel": KillLeader drops the leader's switch connections (the pumps
// run onDisconnect) and then stops its controller, and both close every
// switch handle. With eight switches the check-then-close this replaced
// panicked in two of three runs of this loop; the deterministic half of
// the regression is the controller package's handle hammer.
func TestKillLeaderRepeatedly(t *testing.T) {
	rounds := 150
	if testing.Short() {
		rounds = 20
	}
	for i := 0; i < rounds; i++ {
		c := startCluster(t, netsim.Linear(8, nil), nil)
		injectN(t, c, 1)
		if err := c.KillLeader(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		c.Close()
	}
}
