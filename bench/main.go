// Command bench is the repository's flow-setup benchmark. It assembles
// the real stack in-process, injects PacketIns at Controller.Inject the
// way cbench drives a controller, and observes completion at the data
// plane: a netsim host receiving the released frame. README.md defines
// every workload and metric.
//
//	bash bench/run.sh --workload durable --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// epoch is the zero of every timestamp the harness takes.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// endToEndMetrics is the list an untraced run prints, in the order of
// BENCHMARK.json.
var endToEndMetrics = []string{"throughput_eps", "latency_p25_us", "outage_p25_ms", "setup_s"}

// resultLine is the last line of standard output: the contract with
// whatever drives the benchmark.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if n, err := strconv.Atoi(os.Getenv(spinnerEnv)); err == nil {
		spinnerMain(n) // never returns
	}
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the event schedule")
	seconds := flag.Float64("seconds", 20, "length of the timed steady phase")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
	aa := flag.Int("aa", 0, "run two interleaved sets of N runs per workload and compare them against BENCHMARK.json")
	flag.Parse()

	if *aa > 0 {
		if err := runAA(*aa, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	defer os.RemoveAll(stateRoot)
	if err := os.MkdirAll("out", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	opt := runOptions{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0}
	if opt.trace {
		// The traced run is about the steady path; a few faults are
		// enough for its recovery counters.
		opt.faults = (w.faults + 3) / 4
	}
	// Idle spinners, always: see spin_linux.go. A run without them, or
	// with spinners that compete for the CPU, is in another regime and
	// says so.
	stop, degraded, spinErr := startSpinners()
	if spinErr == nil {
		defer stop()
	}
	rep, err := runWorkload(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if spinErr != nil {
		rep.Flags = append(rep.Flags, fmt.Sprintf("idle spinners unavailable (%v): vCPU wake-ups are in the numbers", spinErr))
	} else if degraded {
		rep.Flags = append(rep.Flags, "idle spinners run at nice 19, not SCHED_IDLE: they take CPU time from the stack")
	}
	printReport(rep)
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the line the driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (rep *report) result() resultLine {
	res := resultLine{Correct: rep.correct(), Attempted: rep.Attempted, Failed: rep.Failed,
		Metrics: map[string]metric{}}
	if !rep.Traced {
		for _, name := range endToEndMetrics {
			res.Metrics[name] = rep.EndToEnd[name]
		}
		return res
	}
	for _, m := range perLayerMetrics {
		v, ok := rep.Layers[m.name]
		if !ok {
			v, ok = rep.Info[m.name]
		}
		if !ok {
			v = metric{0, m.unit}
		}
		res.Metrics[m.name] = v
	}
	return res
}

// printReport writes the human-readable summary, the full report as one
// JSON line, and the result line last.
func printReport(rep *report) {
	fmt.Printf("workload %s  seed %d  %.0f s steady  traced=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("events: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	printMetrics := func(title string, ms map[string]metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println(title)
		for _, n := range names {
			fmt.Printf("  %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	printMetrics("end to end:", rep.EndToEnd)
	if rep.Traced {
		printMetrics("per layer:", rep.result().Metrics)
	} else {
		printMetrics("this run, ungated:", rep.Info)
	}
	for _, c := range rep.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("check %s %s %s\n", status, c.Name, c.Detail)
	}
	for _, f := range rep.Flags {
		fmt.Println("flag:", f)
	}
	full, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", full)
	line, _ := json.Marshal(rep.result())
	fmt.Printf("%s\n", line)
}
