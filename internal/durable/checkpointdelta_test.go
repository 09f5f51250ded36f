package durable

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// Delta-journaled checkpoints must survive a reopen byte-for-byte:
// the WAL holds patches, the mirror and replay reconstruct full images.
// The same puts journaled as full images reopen to the same history but
// cost more log bytes — the saving delta mode exists for.
func TestCheckpointLogDeltaPersistsAcrossReopen(t *testing.T) {
	appended := map[int]uint64{}
	for _, deltaEvery := range []int{1, 4} {
		dir := t.TempDir()
		l, err := OpenCheckpointLog(dir, 16, Options{})
		if err != nil {
			t.Fatal(err)
		}
		l.Store().SetDeltaEvery(deltaEvery)
		state := bytes.Repeat([]byte("flow-entry-"), 200)
		var want [][]byte
		for i := 0; i < 10; i++ {
			st := append([]byte(nil), state...)
			st[i*13] = byte('A' + i)
			state = st
			want = append(want, st)
			l.Store().Put("router", uint64(i+1), st)
		}
		if deltaEvery > 1 && l.Store().DeltaSaves == 0 {
			t.Fatal("no delta saves recorded — delta mode not active")
		}
		l.Flush()
		appended[deltaEvery] = l.WAL().AppendedBytes()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		l2, err := OpenCheckpointLog(dir, 16, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if l2.Restored() != 10 {
			t.Fatalf("deltaEvery=%d: restored %d, want 10 (skipped %d)", deltaEvery, l2.Restored(), l2.SkippedRecords())
		}
		h := l2.Store().History("router")
		if len(h) != 10 {
			t.Fatalf("deltaEvery=%d: history %d, want 10", deltaEvery, len(h))
		}
		for i, cp := range h {
			if cp.Delta || !bytes.Equal(cp.State, want[i]) {
				t.Fatalf("deltaEvery=%d: restored checkpoint %d does not match (delta=%v)", deltaEvery, i, cp.Delta)
			}
		}
		// And the reopened log keeps journaling against restored bases.
		l2.Store().SetDeltaEvery(deltaEvery)
		next := append([]byte(nil), want[9]...)
		next[5] = 'Z'
		l2.Store().Put("router", 11, next)
		l2.Flush()
		if got := l2.Store().Latest("router"); !bytes.Equal(got.State, next) {
			t.Fatalf("deltaEvery=%d: post-reopen put lost", deltaEvery)
		}
	}
	if appended[4] >= appended[1] {
		t.Fatalf("delta mode journaled %d bytes, full images %d — deltas save nothing", appended[4], appended[1])
	}
}

// Regression (checkpoint resurrection): dropped checkpoints used to
// survive in the mirror and WAL, reappearing after compact + reopen.
func TestCheckpointLogDropCompactReopenStaysDropped(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenCheckpointLog(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		l.Store().Put("doomed", uint64(i+1), []byte(fmt.Sprintf("doomed-%d", i)))
		l.Store().Put("keeper", uint64(i+1), []byte(fmt.Sprintf("keeper-%d", i)))
	}
	l.Store().Drop("doomed")
	l.Flush()
	// Force a compaction: the snapshot must not contain "doomed".
	if err := l.compactForTest(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenCheckpointLog(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if h := l2.Store().History("doomed"); len(h) != 0 {
		t.Fatalf("dropped app resurrected with %d checkpoints", len(h))
	}
	if l2.Store().Latest("doomed") != nil {
		t.Fatal("dropped app has a Latest after reopen")
	}
	if h := l2.Store().History("keeper"); len(h) != 5 {
		t.Fatalf("keeper history %d, want 5", len(h))
	}
}

// A drop journaled but not yet compacted must also hold across reopen
// (the drop record itself erases the history during replay).
func TestCheckpointLogDropRecordReplays(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenCheckpointLog(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Store().Put("a", 1, []byte("one"))
	l.Store().Put("a", 2, []byte("two"))
	l.Store().Drop("a")
	l.Store().Put("a", 3, []byte("reborn")) // new history after the drop
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenCheckpointLog(dir, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	h := l2.Store().History("a")
	if len(h) != 1 || string(h[0].State) != "reborn" {
		t.Fatalf("replayed history = %+v, want only the post-drop put", h)
	}
}

// Regression (compaction stall): with the async sink, a compaction in
// the worker must not block a concurrent Put on another app.
func TestCheckpointLogPutNotBlockedDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenCheckpointLog(dir, 4, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	var once bool
	l.testCompactHook = func() {
		if !once {
			once = true
			close(entered)
			<-release
		}
	}

	// Enough volume to push past compactAfterSegments and trigger a
	// compaction in the worker.
	go func() {
		for i := 0; i < 64; i++ {
			l.Store().Put("busy", uint64(i+1), bytes.Repeat([]byte{byte(i)}, 64))
		}
	}()
	<-entered

	// Compaction is now held open. A Put on another app must return
	// promptly: it only enqueues.
	done := make(chan struct{})
	go func() {
		l.Store().Put("other", 1, []byte("must not block"))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Put blocked behind an in-flight compaction")
	}
	close(release)
	l.Flush()
	if cp := l.Store().Latest("other"); cp == nil {
		t.Fatal("concurrent put lost")
	}
}

// compactForTest drives one compaction through the worker, preserving
// queue order.
func (l *CheckpointLog) compactForTest() error {
	l.Flush()
	return l.compact()
}
