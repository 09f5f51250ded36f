package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"legosdn/internal/metrics"
	"legosdn/internal/netlog"
)

// The journal's record discipline — begin rides the first op's sync,
// closing records are written without a sync of their own, an empty
// transaction writes nothing — is only as good as what recovery makes
// of the log a crash leaves behind. These tests cut the log at every
// byte and pin the sync points.

// markedOp is a journal op whose inverse carries mark in its in_port, so
// a recovered op can be told apart from every other.
func markedOp(mark uint16) netlog.JournalOp {
	return netlog.JournalOp{DPID: 1, Inverses: []netlog.JournalInverse{{Mod: addMod(mark)}}}
}

// diskFrame is one record as an independent reading of the segment file
// sees it.
type diskFrame struct {
	end int // offset just past the frame
	typ byte
	id  uint64
}

func parseFrames(t *testing.T, data []byte) []diskFrame {
	t.Helper()
	var out []diskFrame
	for off := 0; off < len(data); {
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		body := data[off+8 : off+8+n]
		off += 8 + n
		out = append(out, diskFrame{end: off, typ: body[0], id: binary.BigEndian.Uint64(body[1:9])})
	}
	return out
}

// TestNetLogJournalRecoversFromEveryBytePrefix writes a journal of
// committed, aborted, open, multi-op and empty transactions, three of
// them in flight at a time, and reopens it cut off after every byte.
// Open must never fail; the orphans must be exactly the transactions
// with a begin and no closing record inside the prefix, each with
// exactly the ops inside the prefix; and an op whose TxnOp had returned
// before the cut is never missing.
func TestNetLogJournalRecoversFromEveryBytePrefix(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			j, err := OpenNetLogJournal(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}

			// One script per transaction: how many ops, and how it ends.
			type script struct {
				id    uint64
				ops   int
				close byte // recTxnCommit, recTxnAbort, or 0: left open
				begun bool
			}
			var waiting []*script
			for id := uint64(1); id <= 14; id++ {
				s := &script{id: id, ops: rng.Intn(4)} // 0 ops: an empty transaction
				switch rng.Intn(4) {
				case 0:
					s.close = recTxnAbort
				case 1: // left open
				default:
					s.close = recTxnCommit
				}
				waiting = append(waiting, s)
			}
			type ackedOp struct {
				id   uint64
				mark uint16
				size int // bytes in the log when TxnOp returned
			}
			var acked []ackedOp
			opsOf := map[uint64][]uint16{} // every op written, by transaction
			mark := uint16(0)
			var active []*script
			for len(waiting) > 0 || len(active) > 0 {
				for len(active) < 3 && len(waiting) > 0 {
					active, waiting = append(active, waiting[0]), waiting[1:]
				}
				i := rng.Intn(len(active))
				s := active[i]
				switch {
				case !s.begun:
					s.begun = true
					if err := j.TxnBegin(s.id); err != nil {
						t.Fatal(err)
					}
					continue
				case s.ops > 0:
					s.ops--
					mark++
					if err := j.TxnOp(s.id, markedOp(mark)); err != nil {
						t.Fatal(err)
					}
					acked = append(acked, ackedOp{s.id, mark, int(j.WAL().AppendedBytes())})
					opsOf[s.id] = append(opsOf[s.id], mark)
					continue
				case s.close == recTxnCommit:
					err = j.TxnCommit(s.id)
				case s.close == recTxnAbort:
					err = j.TxnAbort(s.id)
				}
				if err != nil {
					t.Fatal(err)
				}
				active = append(active[:i], active[i+1:]...)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(filepath.Join(dir, "wal-00000001.seg"))
			if err != nil {
				t.Fatal(err)
			}
			frames := parseFrames(t, data)
			if len(frames) == 0 || frames[len(frames)-1].end != len(data) {
				t.Fatalf("the test's own reading of the log stops short of its %d bytes", len(data))
			}
			for _, f := range frames {
				if f.typ == recTxnBegin && len(opsOf[f.id]) == 0 {
					t.Fatalf("txn %d has a begin record but never journaled an op", f.id)
				}
			}

			cut := t.TempDir()
			seg := filepath.Join(cut, "wal-00000001.seg")
			for n := 0; n <= len(data); n++ {
				if err := os.WriteFile(seg, data[:n], 0o644); err != nil {
					t.Fatal(err)
				}
				// What an independent reading of the prefix expects.
				open := map[uint64]int{} // transaction -> ops inside the prefix
				closed := map[uint64]bool{}
				for _, f := range frames {
					if f.end > n {
						break
					}
					switch f.typ {
					case recTxnBegin:
						open[f.id] = 0
					case recTxnOp:
						open[f.id]++
					default:
						delete(open, f.id)
						closed[f.id] = true
					}
				}

				r, err := OpenNetLogJournal(cut, Options{NoSync: true})
				if err != nil {
					t.Fatalf("prefix of %d bytes: open failed: %v", n, err)
				}
				orphans := r.Orphans()
				r.Close()
				if len(orphans) != len(open) {
					t.Fatalf("prefix of %d bytes: %d orphans, want %d (%v)", n, len(orphans), len(open), open)
				}
				got := map[uint64]map[uint16]bool{}
				for _, o := range orphans {
					want, ok := open[o.ID]
					if !ok {
						t.Fatalf("prefix of %d bytes: txn %d is an orphan without an open begin on disk", n, o.ID)
					}
					if len(o.Ops) != want {
						t.Fatalf("prefix of %d bytes: orphan %d has %d ops, the prefix holds %d", n, o.ID, len(o.Ops), want)
					}
					got[o.ID] = map[uint16]bool{}
					for k, op := range o.Ops {
						m := op.Inverses[0].Mod.Match.InPort
						if m != opsOf[o.ID][k] {
							t.Fatalf("prefix of %d bytes: orphan %d op %d carries mark %d, want %d", n, o.ID, k, m, opsOf[o.ID][k])
						}
						got[o.ID][m] = true
					}
				}
				for _, a := range acked {
					if a.size > n {
						break
					}
					if _, isOpen := open[a.id]; !isOpen && !closed[a.id] {
						t.Fatalf("prefix of %d bytes: op %d of txn %d was acknowledged at %d bytes, yet the txn has no begin on disk",
							n, a.mark, a.id, a.size)
					}
					if _, isOpen := open[a.id]; isOpen && !got[a.id][a.mark] {
						t.Fatalf("prefix of %d bytes: acknowledged op %d is missing from orphan %d", n, a.mark, a.id)
					}
				}
			}
		})
	}
}

func TestNetLogJournalEmptyTxnWritesNothing(t *testing.T) {
	j, err := OpenNetLogJournal(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for id, end := range map[uint64]func(uint64) error{1: j.TxnCommit, 2: j.TxnAbort} {
		if err := j.TxnBegin(id); err != nil {
			t.Fatal(err)
		}
		if j.OpenTxns() != 1 {
			t.Fatalf("txn %d begun but not counted open", id)
		}
		if err := end(id); err != nil {
			t.Fatal(err)
		}
	}
	w := j.WAL()
	if w.EndPos() != 0 || w.AppendedBytes() != 0 || w.Commits() != 0 || j.OpenTxns() != 0 {
		t.Fatalf("two empty transactions left %d records, %d bytes, %d syncs, %d open",
			w.EndPos(), w.AppendedBytes(), w.Commits(), j.OpenTxns())
	}
}

// TestNetLogJournalOneSyncPerOp: begin and first op share a sync, every
// further op has its own, the closing record has none.
func TestNetLogJournalOneSyncPerOp(t *testing.T) {
	for _, opts := range []Options{{}, {GroupCommit: true}} {
		t.Run(fmt.Sprintf("group=%v", opts.GroupCommit), func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenNetLogJournal(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := j.WAL()
			step := func(what string, fn func() error, records, syncs, deferred uint64) {
				t.Helper()
				if err := fn(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if w.EndPos() != records || w.Commits() != syncs || w.DeferredRecords() != deferred {
					t.Fatalf("after %s: %d records, %d syncs, %d deferred; want %d, %d, %d",
						what, w.EndPos(), w.Commits(), w.DeferredRecords(), records, syncs, deferred)
				}
			}
			step("begin", func() error { return j.TxnBegin(1) }, 0, 0, 0)
			step("first op", func() error { return j.TxnOp(1, markedOp(1)) }, 2, 1, 0)
			step("second op", func() error { return j.TxnOp(1, markedOp(2)) }, 3, 2, 0)
			step("commit", func() error { return j.TxnCommit(1) }, 4, 2, 1)
			step("next begin", func() error { return j.TxnBegin(2) }, 4, 2, 1)
			step("next op", func() error { return j.TxnOp(2, markedOp(3)) }, 6, 3, 1)
			step("abort", func() error { return j.TxnAbort(2) }, 7, 3, 2)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenNetLogJournal(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := r.Orphans(); len(got) != 0 || r.WAL().RecoveredRecords() != 7 {
				t.Fatalf("reopened: %d orphans, %d records; want 0, 7", len(got), r.WAL().RecoveredRecords())
			}
		})
	}
}

// TestDeferredRecordsCounterIsExposed: the per-WAL counter an operator
// reads the record discipline off — one deferred record per journaled
// transaction on the netlog WAL, none on the checkpoint WAL.
func TestDeferredRecordsCounterIsExposed(t *testing.T) {
	st, err := OpenState(t.TempDir(), 0, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := metrics.NewRegistry()
	reg.SetStrict(true)
	st.Instrument(reg)
	st.Journal.TxnBegin(1)
	st.Journal.TxnOp(1, markedOp(1))
	st.Journal.TxnCommit(1)
	var text bytes.Buffer
	reg.WritePrometheus(&text)
	for _, want := range []string{
		`legosdn_durable_deferred_records_total{wal="netlog"} 1`,
		`legosdn_durable_deferred_records_total{wal="checkpoints"} 0`,
		`legosdn_durable_commits_total{wal="netlog"} 1`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if dups := reg.Duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate metric registrations: %v", dups)
	}
}

// TestAppendDeferredIsWrittenAtOnceAndSyncedByTheNextSyncPoint: a
// tailing reader sees a deferred record before anything has synced, and
// each kind of sync point that follows counts as one (Close has no
// counter; there the record must simply be in the reopened log).
func TestAppendDeferredIsWrittenAtOnceAndSyncedByTheNextSyncPoint(t *testing.T) {
	cases := []struct {
		name      string
		opts      Options
		syncPoint func(*WAL) error
		syncs     uint64 // sync points the step must add
		records   int    // records in the reopened log
	}{
		{"append", Options{}, func(w *WAL) error { return w.Append(1, []byte("next")) }, 1, 2},
		{"group-commit append", Options{GroupCommit: true}, func(w *WAL) error { return w.Append(1, []byte("next")) }, 1, 2},
		{"batch", Options{}, func(w *WAL) error {
			return w.AppendBatch([]Record{{Type: 1, Payload: []byte("a")}, {Type: 1, Payload: []byte("b")}})
		}, 1, 3},
		// The segment holds one record; a second deferred one rotates,
		// and rotation syncs the segment it leaves.
		{"rotation", Options{SegmentBytes: 16}, func(w *WAL) error { return w.AppendDeferred(1, []byte("next")) }, 1, 2},
		// Compact syncs what it is about to discard, then the snapshot.
		{"compact", Options{}, func(w *WAL) error { return w.Compact([]byte("snap")) }, 2, 1},
		{"close", Options{}, func(w *WAL) error { return w.Close() }, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := w.OpenSegmentReader(w.Segments()[0])
			if err != nil {
				t.Fatal(err)
			}
			defer tail.Close()
			if err := w.AppendDeferred(7, []byte("deferred")); err != nil {
				t.Fatal(err)
			}
			if w.Commits() != 0 || w.DeferredRecords() != 1 || w.EndPos() != 1 {
				t.Fatalf("deferred append: %d syncs, %d deferred, end %d; want 0, 1, 1", w.Commits(), w.DeferredRecords(), w.EndPos())
			}
			rec, err := tail.Next()
			if err != nil || rec.Type != 7 || string(rec.Payload) != "deferred" {
				t.Fatalf("tailing reader before any sync: %d/%q, %v", rec.Type, rec.Payload, err)
			}
			if err := tc.syncPoint(w); err != nil {
				t.Fatal(err)
			}
			if w.Commits() != tc.syncs {
				t.Fatalf("%d sync points after the step, want %d", w.Commits(), tc.syncs)
			}
			w.Close()

			r, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var seen []string
			r.Replay(func(rec Record) error {
				seen = append(seen, string(rec.Payload))
				return nil
			})
			if len(seen) != tc.records {
				t.Fatalf("reopened log holds %q, want %d records", seen, tc.records)
			}
			if tc.name != "compact" && seen[0] != "deferred" {
				t.Fatalf("reopened log starts with %q", seen[0])
			}
		})
	}
}

// TestWrittenWakesOnEveryKindOfWrite: the channel taken before a write
// is closed by it, whichever entry point wrote.
func TestWrittenWakesOnEveryKindOfWrite(t *testing.T) {
	for _, opts := range []Options{{NoSync: true}, {NoSync: true, GroupCommit: true}} {
		w, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		writes := map[string]func() error{
			"append":   func() error { return w.Append(1, []byte("x")) },
			"batch":    func() error { return w.AppendBatch([]Record{{Type: 1, Payload: []byte("x")}}) },
			"deferred": func() error { return w.AppendDeferred(1, []byte("x")) },
			"compact":  func() error { return w.Compact(nil) },
		}
		for name, write := range writes {
			ch := w.Written()
			if w.Written() != ch {
				t.Fatalf("%s: two waiters between writes got different channels", name)
			}
			select {
			case <-ch:
				t.Fatalf("%s: woken before anything was written", name)
			default:
			}
			if err := write(); err != nil {
				t.Fatal(err)
			}
			select {
			case <-ch:
			default:
				t.Fatalf("%s (group=%v) did not wake the tailer", name, opts.GroupCommit)
			}
		}
		w.Close()
	}
}

// TestNetLogJournalReplaysOldLayout: logs written before begin and op
// shared a batch — every record appended and synced on its own — read
// the same way.
func TestNetLogJournalReplaysOldLayout(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opPayload := func(id uint64, mark uint16) []byte {
		payload, err := encodeTxnOp(id, markedOp(mark))
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	for _, rec := range []Record{
		{recTxnBegin, appendU64(nil, 1)}, {recTxnOp, opPayload(1, 11)}, {recTxnCommit, appendU64(nil, 1)},
		{recTxnBegin, appendU64(nil, 2)}, // begun, synced, no op yet
		{recTxnBegin, appendU64(nil, 3)}, {recTxnOp, opPayload(3, 31)}, {recTxnOp, opPayload(3, 32)},
	} {
		if err := w.Append(rec.Type, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	j, err := OpenNetLogJournal(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	orphans := j.Orphans()
	if len(orphans) != 2 || orphans[0].ID != 3 || orphans[1].ID != 2 {
		t.Fatalf("orphans = %+v, want txns 3 and 2", orphans)
	}
	if len(orphans[1].Ops) != 0 || len(orphans[0].Ops) != 2 ||
		orphans[0].Ops[0].Inverses[0].Mod.Match.InPort != 31 || orphans[0].Ops[1].Inverses[0].Mod.Match.InPort != 32 {
		t.Fatalf("orphan ops did not survive: %+v", orphans)
	}
}
