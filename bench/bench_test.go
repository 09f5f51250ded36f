package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

func TestMain(m *testing.M) {
	if n, err := strconv.Atoi(os.Getenv(spinnerEnv)); err == nil {
		spinnerMain(n) // a child of TestSpinnersStartAndStop; never returns
	}
	code := m.Run()
	os.RemoveAll(stateRoot)
	os.Remove("out") // only if the run left nothing else in it
	os.Exit(code)
}

func specs(seed int64, mixed bool, n int) []evSpec {
	s := newSchedule(seed, mixed)
	out := make([]evSpec, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestScheduleFollowsSeed(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		a, b, c := specs(7, mixed, 2000), specs(7, mixed, 2000), specs(8, mixed, 2000)
		same, differ := true, false
		for i := range a {
			same = same && a[i] == b[i]
			differ = differ || a[i] != c[i]
		}
		if !same {
			t.Errorf("mixed=%v: the same seed gave two schedules", mixed)
		}
		if !differ {
			t.Errorf("mixed=%v: seeds 7 and 8 gave the same schedule", mixed)
		}
	}
}

func TestMixedScheduleShape(t *testing.T) {
	counts := map[evKind]int{}
	for _, spec := range specs(1, true, 20000) {
		counts[spec.kind]++
		talkers := hostsPerSwitch - 2
		if spec.src >= talkers || spec.src == spec.dst {
			t.Fatalf("bad endpoints in %+v", spec)
		}
		if (spec.kind == evUnlearned) != (spec.dst >= talkers) {
			t.Fatalf("%+v: only unlearned events may address a silent host", spec)
		}
	}
	for kind, want := range map[evKind]float64{evLearned: 0.80, evUnlearned: 0.10, evPortStatus: 0.05, evFlowRemoved: 0.05} {
		if got := float64(counts[kind]) / 20000; math.Abs(got-want) > 0.01 {
			t.Errorf("kind %d: share %.3f, want %.2f", kind, got, want)
		}
	}
}

func TestEventIDRoundTrip(t *testing.T) {
	fab, err := newFabric(func(int, *netsim.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint32{1, 22, 0x7fff, 0x8000, 123456789, maxEventID} {
		ev := fab.packetIn(evSpec{sw: 2, src: 3, dst: 5}, id, 0)
		data := ev.Message.(*openflow.PacketIn).Data
		if got, ok := frameID(data); !ok || got != id {
			t.Errorf("id %d came back as %d (ok=%v)", id, got, ok)
		}
		if framePoisoned(data) {
			t.Errorf("id %d: clean frame reads as poisoned", id)
		}
		f, err := netsim.ParseFrame(data)
		if err != nil || idOf(f.TpSrc, f.TpDst) != id || f.TpDst == 22 {
			t.Errorf("id %d: parsed ports %d/%d (%v)", id, f.TpSrc, f.TpDst, err)
		}
	}
	poisoned := fab.packetIn(evSpec{src: 0, dst: 1}, 9, poisonTOS)
	if !framePoisoned(poisoned.Message.(*openflow.PacketIn).Data) {
		t.Error("poisoned frame not recognised")
	}
}

// nullCtx swallows what an app sends.
type nullCtx struct{ controller.Context }

func (nullCtx) SendFlowMod(uint64, *openflow.FlowMod) error     { return nil }
func (nullCtx) SendPacketOut(uint64, *openflow.PacketOut) error { return nil }

func TestBenchAppPassesSnapshotAndRestoreThrough(t *testing.T) {
	fab, err := newFabric(func(int, *netsim.Frame) {})
	if err != nil {
		t.Fatal(err)
	}
	inner := apps.NewLearningSwitch()
	app, err := newBenchApp(inner, 0, true, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 4; h++ {
		if err := app.HandleEvent(nullCtx{}, fab.packetIn(evSpec{src: h, dst: (h + 1) % 4}, uint32(h+1), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if inner.KnownMACs(dpidOf(0)) != 4 {
		t.Fatalf("inner app learned %d MACs through the wrapper, want 4", inner.KnownMACs(dpidOf(0)))
	}
	got, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The image is the inner app's own (gob orders maps freshly each
	// time, so bytes cannot be compared): a plain learning switch loads it.
	plain := apps.NewLearningSwitch()
	if err := plain.Restore(got); err != nil || plain.KnownMACs(dpidOf(0)) != 4 {
		t.Errorf("wrapper's Snapshot restored %d MACs into a plain app (%v), want 4", plain.KnownMACs(dpidOf(0)), err)
	}
	fresh := apps.NewLearningSwitch()
	wrapped, _ := newBenchApp(fresh, 0, true, nil)
	if err := wrapped.Restore(got); err != nil {
		t.Fatal(err)
	}
	if fresh.KnownMACs(dpidOf(0)) != 4 {
		t.Errorf("Restore through the wrapper left %d MACs, want 4", fresh.KnownMACs(dpidOf(0)))
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("poisoned PacketIn did not panic")
			}
		}()
		_ = app.HandleEvent(nullCtx{}, fab.packetIn(evSpec{src: 0, dst: 1}, 9, poisonTOS))
	}()
	if _, err := newBenchApp(noopApp{}, 0, false, nil); err == nil {
		t.Error("an app without Snapshot was accepted")
	}
}

// TestWorkloads runs every workload end to end at a small fixed size:
// a 200-event steady phase at both depths and one fault, with every
// output check on.
func TestWorkloads(t *testing.T) {
	t.Cleanup(func() { os.RemoveAll(stateRoot) })
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(runOptions{w: w, seed: 3, seconds: 1, steadyEvents: 200, faults: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.Checks {
				if !c.OK {
					t.Errorf("check %q failed: %s", c.Name, c.Detail)
				}
			}
			if rep.Failed != 0 || rep.Attempted < 400 {
				t.Errorf("%d of %d events failed", rep.Failed, rep.Attempted)
			}
			res := rep.result()
			for _, name := range endToEndMetrics {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
			if len(rep.Series["outage_ms"]) != 1 {
				t.Errorf("%d outages measured, want 1", len(rep.Series["outage_ms"]))
			}
		})
	}
}

// TestTracedRun checks that a traced run yields every per-layer metric
// and a trace file, and that the traced path's parts add up.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("times direct calls into every layer")
	}
	t.Cleanup(func() { os.RemoveAll(stateRoot) })
	w, _ := workloadByName("durable")
	if err := os.MkdirAll("out", 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := runWorkload(runOptions{w: w, seed: 3, seconds: 1, steadyEvents: 200, faults: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result()
	if len(res.Metrics) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics printed, want %d", len(res.Metrics), len(perLayerMetrics))
	}
	for _, name := range []string{"controller.inject_to_handler_us", "appvisor.send_flowmod_us",
		"checkpoint.snapshot_us", "durable.journal_call_us", "netlog.txn_us", "appvisor.rpc_rtt_us",
		"durable.append_us", "openflow.codec_us", "flowtable.lookup_ns"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want a positive value", name, res.Metrics[name].Value)
		}
	}
	if calls := res.Metrics["durable.journal_calls_per_event"].Value; calls < 2.5 || calls > 3.5 {
		t.Errorf("%.2f journal calls per traced event, want begin+op+commit", calls)
	}
	if sum := res.Metrics["bench.selftime_sum_pct"].Value; sum < 70 || sum > 130 {
		t.Errorf("parts of the traced path sum to %.0f %% of it", sum)
	}
	if _, err := os.Stat(filepath.Join("out", "trace-durable.json")); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkJSONNamesWhatTheHarnessPrints(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness prints %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: %q in BENCHMARK.json, %q in the harness", i, m.Name, endToEndMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the harness",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare = %v, want 1.0", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if got := iqrShare([]float64{3, 1, 4, 1, 5}); math.Abs(got-3.5/3) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, 3.5/3)
	}
}

// TestFailoverUnderLoad cuts the leader off with an event in its quorum
// wait, as traced runs do: that event is lost and counted, requests due
// while nobody leads are refused, and the successor still rolls the
// open transaction back.
func TestFailoverUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the cut-off leader's quorum timeouts")
	}
	t.Cleanup(func() { os.RemoveAll(stateRoot) })
	w, _ := workloadByName("replicated")
	g := &generator{e: &env{w: w, sched: newSchedule(3, false)}}
	fr := &faultResult{underLoad: true}
	if err := fr.batch(g, 1); err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	fr.verify(g, rep)
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	if len(fr.outages) != 1 || fr.lost < 1 || fr.refused < 1 {
		t.Errorf("%d outages, %d events lost, %d refused; want 1, at least 1, at least 1", len(fr.outages), fr.lost, fr.refused)
	}
}

func TestSpinnersStartAndStop(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("idle spinners need linux")
	}
	stop, _, err := startSpinners()
	if err != nil {
		t.Skipf("no idle spinners here: %v", err)
	}
	done := make(chan struct{})
	go func() {
		stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("spinners did not stop")
	}
}
