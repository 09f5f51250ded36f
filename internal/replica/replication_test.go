package replica

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"legosdn/internal/durable"
)

// writeFrame sends one frame as its own Write: the hand-built leaders
// of these tests, which frame by frame is all a shipper used to be.
func writeFrame(w io.Writer, f frame) error {
	_, err := w.Write(appendFrame(nil, f))
	return err
}

// walRecords drains a WAL's full live contents via the tail API.
func walRecords(t *testing.T, w *durable.WAL) []durable.Record {
	t.Helper()
	var out []durable.Record
	for _, seq := range w.TailState().Segments {
		r, err := w.OpenSegmentReader(seq)
		if err != nil {
			t.Fatalf("open segment %d: %v", seq, err)
		}
		for {
			rec, err := r.Next()
			if err != nil {
				break
			}
			// Next reuses its read buffer; retain a copy.
			out = append(out, durable.Record{
				Type:    rec.Type,
				Payload: append([]byte(nil), rec.Payload...),
			})
		}
		r.Close()
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerJoinsMidStreamAfterCompaction starts a follower against a
// leader WAL that has already been compacted — the follower must
// bootstrap from the snapshot-headed log (reset frame), then keep pace
// with live appends, ending byte-identical to the leader's live log.
func TestFollowerJoinsMidStreamAfterCompaction(t *testing.T) {
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

	// History the follower never sees raw: five records folded into a
	// snapshot by compaction.
	for i := 0; i < 5; i++ {
		if err := lead.Append(1, []byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lead.Compact([]byte("snapshot-at-5")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lead.Append(1, []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	shipConn, applyConn := net.Pipe()
	app, err := NewApplier(filepath.Join(dir, "follower"), applyConn, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(shipConn, lead, ckpt, nil)
	sh.Run()

	waitFor(t, "mid-stream catch-up", func() bool {
		return app.AppliedPos(streamNetlog) >= lead.EndPos()
	})

	// Live appends after the join must flow too.
	for i := 3; i < 6; i++ {
		if err := lead.Append(1, []byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "live tailing", func() bool {
		return app.AppliedPos(streamNetlog) >= lead.EndPos()
	})
	if app.Resets() < 1 {
		t.Fatalf("follower saw %d resets, want >= 1 (snapshot bootstrap)", app.Resets())
	}

	sh.Stop()
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
	for i := range want {
		if got[i].Type != want[i].Type || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d diverges: follower %d/%q, leader %d/%q",
				i, got[i].Type, got[i].Payload, want[i].Type, want[i].Payload)
		}
	}
	if got[0].Type != durable.RecSnapshot || string(got[0].Payload) != "snapshot-at-5" {
		t.Fatalf("follower log does not start with the snapshot: %d/%q", got[0].Type, got[0].Payload)
	}
}

// TestDuplicateDeliveryIdempotent feeds an applier hand-built frames
// with a duplicated position: the duplicate must be counted and
// skipped, leaving exactly one copy in the shadow log.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	opts := durable.Options{NoSync: true}
	leaderSide, applyConn := net.Pipe()
	app, err := NewApplier(dir, applyConn, opts, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The applier acks each write's NetLog frames on the same
	// synchronous pipe, so the fake leader must drain the acks.
	go func() {
		for {
			if _, err := readFrame(leaderSide); err != nil {
				return
			}
		}
	}()

	send := func(f frame) {
		t.Helper()
		if err := writeFrame(leaderSide, f); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
	}
	send(frame{Kind: frameReset, Stream: streamNetlog, Pos: 0, Gen: 0})
	send(frame{Kind: frameRecord, Stream: streamNetlog, RecType: 1, Pos: 1, Gen: 0, Payload: []byte("x")})
	// A shipper retrying after a partial failover re-sends the same
	// position: must be dropped, not re-applied.
	send(frame{Kind: frameRecord, Stream: streamNetlog, RecType: 1, Pos: 1, Gen: 0, Payload: []byte("x")})
	send(frame{Kind: frameRecord, Stream: streamNetlog, RecType: 1, Pos: 2, Gen: 0, Payload: []byte("y")})

	waitFor(t, "frames applied", func() bool {
		return app.AppliedPos(streamNetlog) >= 2 && app.Backlog() == 0
	})
	if got := app.Dups(); got != 1 {
		t.Fatalf("dups = %d, want 1", got)
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
	if len(recs) != 2 || string(recs[0].Payload) != "x" || string(recs[1].Payload) != "y" {
		t.Fatalf("shadow log = %d records %q, want [x y]", len(recs), recs)
	}
}
