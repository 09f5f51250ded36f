package flightrec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"legosdn/internal/metrics"
)

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	r.Record(Record{Layer: LayerNetLog})
	if got := r.LayerRecords(LayerNetLog, 4); got != nil {
		t.Fatalf("nil layer records = %v", got)
	}
	if got := r.Correlated("x", 1, 1, 4); got != nil {
		t.Fatalf("nil correlated = %v", got)
	}
	r.Instrument(metrics.NewRegistry())
}

func TestRecordOrderingAndStamps(t *testing.T) {
	r := New(Options{PerLayer: 8})
	for i := 0; i < 5; i++ {
		r.Record(Record{Layer: LayerController, Kind: KindEventDispatched, EvSeq: uint64(i)})
	}
	recs := r.LayerRecords(LayerController, 0)
	if len(recs) != 5 {
		t.Fatalf("held %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d seq=%d, want %d", i, rec.Seq, i+1)
		}
		if rec.TS == 0 {
			t.Fatalf("record %d missing timestamp", i)
		}
		if rec.EvSeq != uint64(i) {
			t.Fatalf("record %d out of order: ev_seq=%d", i, rec.EvSeq)
		}
	}
	if got := r.Records.Load(); got != 5 {
		t.Fatalf("Records=%d, want 5", got)
	}
	if got := r.Laps.Load(); got != 0 {
		t.Fatalf("Laps=%d, want 0", got)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(Options{PerLayer: 4})
	for i := 0; i < 10; i++ {
		r.Record(Record{Layer: LayerNetLog, Kind: KindTxnCommit, Txn: uint64(i)})
	}
	recs := r.LayerRecords(LayerNetLog, 0)
	if len(recs) != 4 {
		t.Fatalf("held %d records after wrap, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Txn != want {
			t.Fatalf("slot %d holds txn %d, want %d (newest four)", i, rec.Txn, want)
		}
	}
	if got := r.Laps.Load(); got != 6 {
		t.Fatalf("Laps=%d, want 6", got)
	}
}

func TestLayersAreIndependent(t *testing.T) {
	r := New(Options{PerLayer: 4})
	r.Record(Record{Layer: LayerController, Kind: KindEventDispatched})
	r.Record(Record{Layer: LayerCrashPad, Kind: KindPolicyDecision})
	r.Record(Record{Layer: NumLayers + 3}) // out of range: dropped
	if n := len(r.LayerRecords(LayerController, 0)); n != 1 {
		t.Fatalf("controller ring holds %d, want 1", n)
	}
	if n := len(r.LayerRecords(LayerCrashPad, 0)); n != 1 {
		t.Fatalf("crashpad ring holds %d, want 1", n)
	}
	if n := len(refSnapshot(r)); n != 2 {
		t.Fatalf("snapshot holds %d, want 2", n)
	}
}

func TestCorrelatedFiltersByAppTraceTxn(t *testing.T) {
	r := New(Options{PerLayer: 16})
	r.Record(Record{Layer: LayerController, Kind: KindEventDispatched, Trace: 0xabc, EvSeq: 7})
	r.Record(Record{Layer: LayerNetLog, Kind: KindTxnBegin, Txn: 42, Trace: 0xabc})
	r.Record(Record{Layer: LayerAppVisor, Kind: KindCrashDetected, App: "lswitch"})
	r.Record(Record{Layer: LayerAppVisor, Kind: KindStubRespawn, App: "other"})
	r.Record(Record{Layer: LayerCrashPad, Kind: KindPolicyDecision, App: "lswitch", Trace: 0xabc})

	got := r.Correlated("lswitch", 0xabc, 42, 8)
	if len(got["controller"]) != 1 {
		t.Fatalf("controller records = %v", got["controller"])
	}
	if len(got["netlog"]) != 1 || got["netlog"][0].Txn != 42 {
		t.Fatalf("netlog records = %v", got["netlog"])
	}
	av := got["appvisor"]
	if len(av) != 1 || av[0].App != "lswitch" {
		t.Fatalf("appvisor records should exclude other app: %v", av)
	}
	if len(got["crashpad"]) != 1 {
		t.Fatalf("crashpad records = %v", got["crashpad"])
	}
	if _, ok := got["checkpoint"]; ok {
		t.Fatalf("empty layer should be omitted")
	}
}

func TestCorrelatedBoundsPerLayer(t *testing.T) {
	r := New(Options{PerLayer: 64})
	for i := 0; i < 40; i++ {
		r.Record(Record{Layer: LayerNetLog, Kind: KindTxnCommit, Txn: uint64(i)})
	}
	got := r.Correlated("", 0, 0, 5)
	recs := got["netlog"]
	if len(recs) != 5 {
		t.Fatalf("correlated kept %d, want 5", len(recs))
	}
	if recs[0].Txn != 35 || recs[4].Txn != 39 {
		t.Fatalf("correlated should keep the newest five, oldest first: %v", recs)
	}
}

// TestConcurrentWrapHammer drives many writers through a tiny ring so
// slots wrap constantly while a reader walks the rings, proving the
// publication scheme race-clean (run under -race in CI), every observed
// record internally consistent, and Correlated's result well formed:
// sorted by Seq, at most perLayer per layer, no duplicates, and every
// record in its layer and matching the filter.
func TestConcurrentWrapHammer(t *testing.T) {
	r := New(Options{PerLayer: 64})
	const writers = 8
	const perWriter = 5000
	const perLayer = 16

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for l := Layer(0); l < NumLayers; l++ {
				for _, rec := range r.LayerRecords(l, 0) {
					if rec.Seq == 0 || rec.TS == 0 || rec.Layer != l {
						t.Errorf("torn record observed: %+v", rec)
						return
					}
				}
			}
			for layer, recs := range r.Correlated("app3", 0, 7, perLayer) {
				if msg := checkCorrelated(layer, recs, perLayer, func(rec Record) bool {
					return rec.App == "app3" || rec.App == "" || rec.Txn == 7
				}); msg != "" {
					t.Error(msg)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			app := fmt.Sprintf("app%d", w)
			for i := 0; i < perWriter; i++ {
				r.Record(Record{
					Layer: Layer(uint64(w+i) % uint64(NumLayers)),
					Kind:  KindEventDispatched,
					App:   app,
					Txn:   uint64(i % 11),
					EvSeq: uint64(i),
				})
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := r.Records.Load(); got != writers*perWriter {
		t.Fatalf("Records=%d, want %d", got, writers*perWriter)
	}
	// Every ring is full (far more writes than capacity) and the
	// newest records survived.
	total := 0
	var maxSeq uint64
	for l := Layer(0); l < NumLayers; l++ {
		recs := r.LayerRecords(l, 0)
		total += len(recs)
		for _, rec := range recs {
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		}
	}
	if total != int(NumLayers)*64 {
		t.Fatalf("held %d records, want %d full rings", total, int(NumLayers)*64)
	}
	if maxSeq != writers*perWriter {
		t.Fatalf("newest seq %d lost, want %d", maxSeq, writers*perWriter)
	}
	if r.Laps.Load() == 0 {
		t.Fatalf("expected wrap-around laps under hammer")
	}
}

func TestInstrumentRegistersCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New(Options{})
	r.Instrument(reg)
	r.Record(Record{Layer: LayerController})
	if got := r.Records.Load(); got != 1 {
		t.Fatalf("Records=%d, want 1", got)
	}
}

// refLayerRecords, refSnapshot and refCorrelated are the full-copy
// reference: copy every held slot, sort by Seq, filter, keep the tail.
// The differential tests hold the ring walk to them.
func refLayerRecords(r *Recorder, l Layer, n int) []Record {
	rg := &r.rings[l]
	recs := make([]Record, 0, len(rg.slots))
	for i := range rg.slots {
		if rec := rg.slots[i].Load(); rec != nil {
			recs = append(recs, *rec)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

func refSnapshot(r *Recorder) []Record {
	var out []Record
	for l := Layer(0); l < NumLayers; l++ {
		out = append(out, refLayerRecords(r, l, 0)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func refCorrelated(r *Recorder, app string, traceID, txnID uint64, perLayer int) map[string][]Record {
	if perLayer <= 0 {
		perLayer = 16
	}
	out := make(map[string][]Record, NumLayers)
	for l := Layer(0); l < NumLayers; l++ {
		var kept []Record
		for _, rec := range refLayerRecords(r, l, 0) {
			switch {
			case app == "" || rec.App == "" || rec.App == app:
			case traceID != 0 && rec.Trace == traceID:
			case txnID != 0 && rec.Txn == txnID:
			default:
				continue
			}
			kept = append(kept, rec)
		}
		if len(kept) > perLayer {
			kept = kept[len(kept)-perLayer:]
		}
		if len(kept) > 0 {
			out[l.String()] = kept
		}
	}
	return out
}

// checkCorrelated reports what is wrong with one layer of a Correlated
// result, or "" when it is well formed.
func checkCorrelated(layer string, recs []Record, perLayer int, match func(Record) bool) string {
	if len(recs) == 0 || len(recs) > perLayer {
		return fmt.Sprintf("%s: %d records, want 1..%d", layer, len(recs), perLayer)
	}
	for i, rec := range recs {
		if rec.Layer.String() != layer || !match(rec) {
			return fmt.Sprintf("%s: record %+v is in the wrong layer or fails the filter", layer, rec)
		}
		if i > 0 && rec.Seq <= recs[i-1].Seq {
			return fmt.Sprintf("%s: seq %d after %d: unsorted or duplicated", layer, rec.Seq, recs[i-1].Seq)
		}
	}
	return ""
}

// fillRings writes n records per layer from one goroutine, with app,
// trace and txn drawn from small sets so every filter has hits and
// misses.
func fillRings(r *Recorder, rng *rand.Rand, n int) {
	apps := []string{"", "fw", "lswitch", "router"}
	for i := 0; i < n; i++ {
		for l := Layer(0); l < NumLayers; l++ {
			r.Record(Record{
				Layer: l,
				Kind:  Kind(rng.Intn(int(KindRecoveryDone) + 1)),
				App:   apps[rng.Intn(len(apps))],
				Trace: uint64(rng.Intn(4)),
				Txn:   uint64(rng.Intn(6)),
				EvSeq: uint64(i),
			})
		}
	}
}

func TestRingWalkMatchesFullCopy(t *testing.T) {
	const capacity = 32
	for _, fill := range []int{0, 1, 13, capacity, 3*capacity + 5} {
		r := New(Options{PerLayer: capacity})
		fillRings(r, rand.New(rand.NewSource(int64(fill))), fill)
		for _, n := range []int{-1, 0, 1, 16, capacity, capacity + 7} {
			for l := Layer(0); l < NumLayers; l++ {
				got, want := r.LayerRecords(l, n), refLayerRecords(r, l, n)
				if !slices.Equal(got, want) {
					t.Fatalf("fill %d: LayerRecords(%s, %d) = %v, want %v", fill, l, n, got, want)
				}
			}
		}
		for _, app := range []string{"", "fw", "absent"} {
			for _, trace := range []uint64{0, 2} {
				for _, txn := range []uint64{0, 5} {
					for _, perLayer := range []int{0, 1, 16, capacity + 7} {
						got := r.Correlated(app, trace, txn, perLayer)
						want := refCorrelated(r, app, trace, txn, perLayer)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("fill %d: Correlated(%q, %d, %d, %d) = %v, want %v",
								fill, app, trace, txn, perLayer, got, want)
						}
					}
				}
			}
		}
	}
}

// fullRecorder returns a recorder of default capacity with every ring
// wrapped, as a deployment's is after its first few thousand events.
func fullRecorder() *Recorder {
	r := New(Options{})
	fillRings(r, rand.New(rand.NewSource(1)), 3*2048)
	return r
}

// TestCorrelatedCostFollowsPerLayer pins what one autopsy's evidence
// costs on full default rings: the records it returns, not a copy of
// all 5 x 2048 slots (about 1 MiB).
func TestCorrelatedCostFollowsPerLayer(t *testing.T) {
	r := fullRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := r.Correlated("fw", 2, 0, 16)
	runtime.ReadMemStats(&after)
	if n := len(got["netlog"]); n != 16 {
		t.Fatalf("netlog kept %d records, want 16", n)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("Correlated allocated %d bytes on full rings, want < 64 KiB", alloc)
	}
}

func BenchmarkCorrelatedFullRings(b *testing.B) {
	r := fullRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correlatedSink = r.Correlated("fw", 2, 0, 16)
	}
}

var correlatedSink map[string][]Record
