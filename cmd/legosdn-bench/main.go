// Command legosdn-bench regenerates the LegoSDN evaluation: every
// table, figure and quantitative claim from the paper, as text tables.
// The same experiment code backs the root bench_test.go, so
// `go test -bench=.` and this binary agree.
//
// Usage:
//
//	legosdn-bench                          # full run
//	legosdn-bench -quick                   # reduced iteration counts
//	legosdn-bench -only C3                 # a single experiment by id
//	legosdn-bench -list                    # experiment index
//	legosdn-bench -chaos -chaos-seed 7     # chaos scenario suite under seed 7
//	legosdn-bench -chaos -chaos-only av-drop
//	legosdn-bench -campaign -campaign-seeds 200 -campaign-shrink
//	                                       # randomized fault-schedule search; failures
//	                                       # are ddmin-shrunk to 1-minimal reproducers
//	legosdn-bench -campaign -campaign-replay testdata/chaos-corpus
//	                                       # replay the regression corpus byte-for-byte
//	legosdn-bench -state-dir ./state -durable-smoke 50
//	                                       # crash-recovery smoke: kill -9 mid-run,
//	                                       # rerun, grep recovered_txns=
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"legosdn/internal/chaos"
	"legosdn/internal/experiments"
)

// experiment is one row of the index: run regenerates its table.
type experiment struct {
	id    string
	title string
	run   func(quick bool) experiments.Table
}

// index maps experiment ids to constructors, using full-run parameters.
var index = []experiment{
	{"T1", "fate sharing (paper Table 1)", func(bool) experiments.Table { return experiments.Table1FateSharing() }},
	{"T2", "app survey (paper Table 2)", func(bool) experiments.Table { return experiments.Table2AppSurvey() }},
	{"F1", "architecture latency (paper Figure 1)", func(q bool) experiments.Table {
		return experiments.Figure1ArchLatency(pick(q, 500, 2000))
	}},
	{"C1", "bug corpus, 16% catastrophic (§2.1)", func(q bool) experiments.Table {
		return experiments.ClaimBugCorpus(pick(q, 12, 50), 7)
	}},
	{"C2", "control-loop latency (§3.1)", func(q bool) experiments.Table {
		return experiments.ClaimControlLoop(pick(q, 5, 20))
	}},
	{"C3", "NetLog rollback (§3.2)", func(bool) experiments.Table {
		return experiments.ClaimNetLogRollback([]int{1, 2, 4, 8, 16, 32, 64})
	}},
	{"C4", "Crash-Pad recovery by policy (§3.3)", func(q bool) experiments.Table {
		return experiments.ClaimCrashPadRecovery(pick(q, 3, 10))
	}},
	{"C5", "equivalence transform (§3.3)", func(bool) experiments.Table { return experiments.ClaimEquivalence() }},
	{"C6", "controller upgrade (§3.4)", func(bool) experiments.Table { return experiments.ClaimUpgrade(6) }},
	{"C7", "atomic updates (§3.4)", func(bool) experiments.Table { return experiments.ClaimAtomicUpdate() }},
	{"C8", "checkpoint cadence sweep (§5)", func(q bool) experiments.Table {
		return experiments.ClaimCheckpointSweep([]int{1, 2, 4, 8, 16, 32}, pick(q, 200, 1000))
	}},
	{"C9", "clone switchover (§5)", func(q bool) experiments.Table {
		return experiments.ClaimCloneSwitchover(pick(q, 60, 200))
	}},
	{"C10", "N-version voting (§3.4)", func(q bool) experiments.Table {
		return experiments.ClaimNVersion(pick(q, 60, 120))
	}},
	{"C11", "minimal causal sequences (§5)", func(bool) experiments.Table { return experiments.ClaimMCS(48) }},
	{"C12", "per-app resource limits (§3.4)", func(q bool) experiments.Table {
		return experiments.ClaimResourceLimits(pick(q, 100, 300))
	}},
	{"C13", "No-Compromise escalation (§5)", func(bool) experiments.Table {
		return experiments.ClaimInvariantEscalation()
	}},
	{"S1", "chaos search: fault-schedule minimization to 1-minimal reproducers (§5)", func(q bool) experiments.Table {
		return experiments.ClaimChaosSearch(q)
	}},
}

func pick(quick bool, q, full int) int {
	if quick {
		return q
	}
	return full
}

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts")
	only := flag.String("only", "", "run a subset of experiments by id, comma-separated (e.g. C3 or C3,S1); an unknown id is an error")
	list := flag.Bool("list", false, "print the experiment index and exit")
	noMetrics := flag.Bool("no-metrics", false, "suppress the per-experiment metrics JSON blocks")
	chaosRun := flag.Bool("chaos", false, "run the chaos scenario suite instead of the experiments")
	chaosSeed := flag.Uint64("chaos-seed", 1, "fault schedule seed for -chaos (same seed, same faults)")
	chaosOnly := flag.String("chaos-only", "", "run a single chaos scenario by name")
	chaosVerbose := flag.Bool("chaos-v", false, "print each scenario's full report and fault schedule")
	campaignRun := flag.Bool("campaign", false, "run a randomized chaos campaign instead of the experiments")
	campaignSeed := flag.Uint64("campaign-seed", 1, "campaign seed: derives every run's scenario and fault schedule")
	campaignSeeds := flag.Int("campaign-seeds", 100, "how many randomized per-seed scenarios the campaign runs")
	campaignShrink := flag.Bool("campaign-shrink", false, "ddmin-shrink each failing run's fault schedule to a 1-minimal reproducer")
	campaignOut := flag.String("campaign-out", "", "write the campaign summary JSON to this file")
	campaignCorpus := flag.String("campaign-corpus", "", "persist minimized failures as regression corpus entries under this directory")
	campaignReplay := flag.String("campaign-replay", "", "replay a regression corpus directory byte-for-byte instead of searching")
	campaignParallel := flag.Int("campaign-parallel", 4, "campaign worker count (results are identical at any parallelism)")
	autopsyDir := flag.String("autopsy-dir", "", "persist every autopsy report a chaos stack assembles as JSON files under this directory")
	stateDir := flag.String("state-dir", "", "durable state directory for -durable-smoke (WAL-backed checkpoints + NetLog journal)")
	smokeIters := flag.Int("durable-smoke", 0, "run N crash-recovery smoke iterations against -state-dir, then exit")
	smokeHold := flag.Duration("durable-smoke-hold", 80*time.Millisecond, "how long each smoke iteration holds its transaction open")
	smokeKill := flag.Int("durable-smoke-kill", 0, "SIGKILL this process mid-transaction at iteration N (0 disables); deterministic crash for recovery testing")
	haSmoke := flag.Bool("ha-smoke", false, "run the 3-replica kill-leader failover smoke and exit (0 = all invariants held)")
	haSmokeSeed := flag.Uint64("ha-smoke-seed", 1, "fault schedule seed for -ha-smoke")
	campaignAutopsyMax := flag.Int("campaign-autopsy-max", 0, "cap how many failing campaign runs persist autopsies under -autopsy-dir (0 = default cap, negative = unlimited)")
	flag.Parse()

	if *smokeIters > 0 {
		os.Exit(runDurableSmoke(*stateDir, *smokeIters, *smokeHold, *smokeKill))
	}
	if *haSmoke {
		os.Exit(runHASmoke(*haSmokeSeed, *autopsyDir))
	}
	if *chaosRun {
		os.Exit(runChaos(*chaosSeed, *chaosOnly, *chaosVerbose, *autopsyDir))
	}
	if *campaignRun || *campaignReplay != "" {
		os.Exit(runCampaign(campaignOpts{
			seed:       *campaignSeed,
			runs:       *campaignSeeds,
			shrink:     *campaignShrink,
			parallel:   *campaignParallel,
			out:        *campaignOut,
			corpusDir:  *campaignCorpus,
			replayDir:  *campaignReplay,
			autopsyDir: *autopsyDir,
			autopsyMax: *campaignAutopsyMax,
		}))
	}

	if *list {
		for _, e := range index {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	run, unknown := selectExperiments(*only)
	if len(unknown) > 0 {
		ids := make([]string, len(index))
		for i, e := range index {
			ids[i] = e.id
		}
		fmt.Fprintf(os.Stderr, "legosdn-bench: unknown experiment id(s) %q in -only (have: %s)\n",
			unknown, strings.Join(ids, ", "))
		os.Exit(exitSetupError)
	}
	start := time.Now()
	for _, e := range run {
		t0 := time.Now()
		table := e.run(*quick)
		fmt.Println(table.Render())
		if table.Metrics != nil && !*noMetrics {
			// Machine-readable companion block: the instrumented stack's
			// frozen registry (counters, gauges, latency quantiles).
			if b, err := json.MarshalIndent(table.Metrics, "", "  "); err == nil {
				fmt.Printf("metrics %s %s\n", e.id, b)
			}
		}
		fmt.Printf("(%s completed in %s)\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("ran %d experiment(s) in %s\n", len(run), time.Since(start).Round(time.Millisecond))
}

// selectExperiments resolves the comma-separated -only spec against the
// index, in index order (empty spec = every experiment). Ids match
// case-insensitively, surrounding whitespace ignored. Every id the index
// does not have comes back in unknown, so a script naming a removed
// experiment fails instead of silently running less.
func selectExperiments(spec string) (run []experiment, unknown []string) {
	if spec == "" {
		return index, nil
	}
	picked := make([]bool, len(index))
	for _, raw := range strings.Split(spec, ",") {
		id := strings.TrimSpace(raw)
		i := slices.IndexFunc(index, func(e experiment) bool { return strings.EqualFold(e.id, id) })
		if i < 0 {
			unknown = append(unknown, id)
			continue
		}
		picked[i] = true
	}
	for i, e := range index {
		if picked[i] {
			run = append(run, e)
		}
	}
	return run, unknown
}

// runChaos drives the chaos scenario library under one seed and prints
// a result table; the exit code is nonzero if any invariant fails, so a
// CI smoke step can gate on it. A failing run reproduces from the
// printed seed alone.
func runChaos(seed uint64, only string, verbose bool, autopsyDir string) int {
	scenarios := chaos.Library()
	if only != "" {
		sc, ok := chaos.Find(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "legosdn-bench: no chaos scenario %q (have: %s)\n",
				only, strings.Join(chaosScenarioNames(), ", "))
			return exitSetupError
		}
		scenarios = []chaos.Scenario{sc}
	}

	fmt.Printf("chaos suite: %d scenario(s), seed %d\n\n", len(scenarios), seed)
	fmt.Printf("%-22s %-8s %-8s %-8s %s\n", "SCENARIO", "EVENTS", "FAULTS", "RESULT", "DETAIL")
	failed := 0
	start := time.Now()
	for _, sc := range scenarios {
		t0 := time.Now()
		if autopsyDir != "" {
			// One subdirectory per scenario: autopsy ids restart at 1 for
			// every stack, so two scenarios must not share a directory.
			sc.AutopsyDir = filepath.Join(autopsyDir, sc.Name)
		}
		rep := sc.Run(seed, nil)
		faults := 0
		for _, c := range rep.Fired {
			faults += c
		}
		result, detail := "ok", fmt.Sprintf("%s", time.Since(t0).Round(time.Millisecond))
		if rep.Failed() {
			failed++
			result = "FAIL"
			for _, iv := range rep.Invariants {
				if iv.Err != nil {
					detail = fmt.Sprintf("%s: %v", iv.Name, iv.Err)
					break
				}
			}
		}
		fmt.Printf("%-22s %-8d %-8d %-8s %s\n", sc.Name, rep.EventsInjected, faults, result, detail)
		if verbose || rep.Failed() {
			fmt.Println()
			fmt.Print(rep.Render())
			if verbose {
				fmt.Print(rep.ScheduleFingerprint)
			}
			fmt.Println()
		}
		if rep.Failed() {
			// A failing scenario gets its forensics printed: the autopsy
			// ties the violated invariants to the flight recorder's last
			// records, so the console has the why, not just the what.
			for _, a := range rep.Autopsies {
				if a.Trigger == "chaos-invariant" {
					fmt.Print(a.Render())
					fmt.Println()
				}
			}
			if sc.AutopsyDir != "" {
				fmt.Printf("autopsies persisted under %s\n\n", sc.AutopsyDir)
			}
		}
	}
	fmt.Printf("\n%d/%d scenarios passed in %s (reproduce with -chaos-seed %d)\n",
		len(scenarios)-failed, len(scenarios), time.Since(start).Round(time.Millisecond), seed)
	if failed > 0 {
		return exitInvariantFail
	}
	return exitOK
}
