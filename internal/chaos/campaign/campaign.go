// Package campaign turns the chaos harness from a fixed scenario
// library into a search: randomized fault-schedule campaigns over the
// full injection-point catalog, automatic shrinking of failures to
// 1-minimal reproducing fault sequences (the STS-style "minimal causal
// sequence" substitution §5 of the paper proposes), and a versioned
// regression corpus of failing seeds that replays on every test run.
package campaign

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"legosdn/internal/chaos"
	"legosdn/internal/flightrec"
	"legosdn/internal/mcs"
)

// SyntheticCheck is a serializable invariant predicate over a run's
// fired-fault tallies — the campaign's test hook. Injecting a
// deliberately-broken invariant this way exercises the whole search
// (detection, shrinking, corpus persistence) without needing a real
// bug, and because the check is data, a corpus entry created under a
// hook replays self-contained.
type SyntheticCheck struct {
	// Kind selects the predicate:
	//   fired-at-least  fail when >= N faults fired at Point
	//   fired-pair      fail when Point and Point2 each fired >= 1
	Kind   string `json:"kind"`
	Point  string `json:"point"`
	Point2 string `json:"point2,omitempty"`
	N      int    `json:"n,omitempty"`
}

// Synthetic check kinds.
const (
	SyntheticFiredAtLeast = "fired-at-least"
	SyntheticFiredPair    = "fired-pair"
)

// Validate rejects malformed checks (corpus files are untrusted input).
func (c *SyntheticCheck) Validate() error {
	switch c.Kind {
	case SyntheticFiredAtLeast:
		if c.Point == "" || c.N < 1 || c.N > 1<<20 {
			return fmt.Errorf("campaign: bad %s check: point=%q n=%d", c.Kind, c.Point, c.N)
		}
	case SyntheticFiredPair:
		if c.Point == "" || c.Point2 == "" {
			return fmt.Errorf("campaign: bad %s check: both points required", c.Kind)
		}
	default:
		return fmt.Errorf("campaign: unknown synthetic check kind %q", c.Kind)
	}
	return nil
}

// Name is the invariant name the check reports under.
func (c *SyntheticCheck) Name() string { return "synthetic/" + c.Kind }

// firedAt tallies rep.Fired entries matching point exactly or as a
// path prefix (wire points are per-app: "appvisor/drop/rec0" matches
// the catalog point "appvisor/drop").
func firedAt(rep *chaos.Report, point string) int {
	total := 0
	for p, n := range rep.Fired {
		if p == point || strings.HasPrefix(p, point+"/") {
			total += n
		}
	}
	return total
}

// Apply evaluates the check against a finished run and appends its
// verdict to the report's invariant list. Nil checks are no-ops.
func (c *SyntheticCheck) Apply(rep *chaos.Report) {
	if c == nil {
		return
	}
	var err error
	switch c.Kind {
	case SyntheticFiredAtLeast:
		if got := firedAt(rep, c.Point); got >= c.N {
			err = fmt.Errorf("%d fault(s) fired at %s (broken-invariant threshold %d)", got, c.Point, c.N)
		}
	case SyntheticFiredPair:
		a, b := firedAt(rep, c.Point), firedAt(rep, c.Point2)
		if a >= 1 && b >= 1 {
			err = fmt.Errorf("both %s (%d) and %s (%d) fired", c.Point, a, c.Point2, b)
		}
	}
	rep.Invariants = append(rep.Invariants, chaos.InvariantResult{Name: c.Name(), Err: err})
}

// Config parameterizes one campaign.
type Config struct {
	// Seed is the campaign seed; run i executes under the derived seed
	// Mix64(Seed ^ Mix64(i+1)). Same campaign seed, same scenario set.
	Seed uint64
	// Runs is how many randomized scenarios to execute.
	Runs int
	// Shrink enables ddmin minimization of failing runs' fault
	// schedules (deterministic scenarios only), at most maxShrinkReplays
	// replays per failure.
	Shrink bool
	// Parallel is the worker count (0 = serial). Results are collected
	// by run index, so parallelism never changes the summary bytes.
	Parallel int
	// CorpusDir, when set, persists each reproducible minimized failure
	// as a corpus entry file there (created if missing).
	CorpusDir string
	// AutopsyDir, when set, appends the autopsy reports attached to
	// each failing run to <dir>/<scenario-name>/autopsies.jsonl.
	AutopsyDir string
	// MaxAutopsyFailures bounds how many failing runs persist autopsies
	// under AutopsyDir (0 = default 25, negative = unlimited). A
	// hostile campaign can fail hundreds of runs; the first few dozen
	// runs' reports are triage gold, the rest are a disk-filling
	// liability.
	MaxAutopsyFailures int
	// Synthetic, when set, is applied to every run as an extra
	// invariant — the deliberately-broken-invariant test hook.
	Synthetic *SyntheticCheck
	// Generate overrides scenario synthesis (default Synthesize). Must
	// be a pure function of the run seed.
	Generate func(runSeed uint64) ScenarioSpec
	// Log, when set, receives one progress line per failure and per
	// shrink. Nil is silent.
	Log io.Writer
}

// RunRecord is one campaign run's outcome in the summary.
type RunRecord struct {
	Index         int      `json:"index"`
	Seed          uint64   `json:"seed"`
	Scenario      string   `json:"scenario"`
	Classes       []string `json:"classes,omitempty"`
	Deterministic bool     `json:"deterministic"`
	// FiredAtoms counts the run's fired fault occurrences, recorded only
	// for deterministic runs: nondeterministic scenarios fire
	// interleaving-dependent counts, which would break the summary's
	// same-seed byte-identity.
	FiredAtoms int `json:"fired_atoms,omitempty"`
	// ScheduleFP is a 64-bit FNV-1a hash of the run's schedule
	// fingerprint, recorded only for deterministic runs (the ones whose
	// fingerprints are reproducible by contract).
	ScheduleFP        string        `json:"schedule_fp,omitempty"`
	Failed            bool          `json:"failed,omitempty"`
	FailingInvariants []string      `json:"failing_invariants,omitempty"`
	Shrink            *ShrinkRecord `json:"shrink,omitempty"`
}

// ShrinkRecord describes one failure's minimization.
type ShrinkRecord struct {
	OriginalAtoms int     `json:"original_atoms"`
	MinAtoms      int     `json:"min_atoms"`
	Ratio         float64 `json:"ratio"` // MinAtoms / OriginalAtoms
	Replays       int     `json:"replays"`
	Minimal       bool    `json:"minimal"`
	// Reproducible is false when the full recorded schedule failed to
	// reproduce the failure under pinned replay (flaky/nondeterministic
	// failure); no corpus entry is written then.
	Reproducible bool   `json:"reproducible"`
	CorpusFile   string `json:"corpus_file,omitempty"`
	Skipped      string `json:"skipped,omitempty"` // reason shrinking was not attempted
}

// Summary is the campaign's machine-readable result. Everything except
// the wall-time fields is a pure function of the campaign seed and
// config, which the determinism test pins down.
type Summary struct {
	Version      int            `json:"version"`
	CampaignSeed uint64         `json:"campaign_seed"`
	SeedsRun     int            `json:"seeds_run"`
	Failures     int            `json:"failures"`
	Shrunk       int            `json:"shrunk"`
	TotalReplays int            `json:"total_replays"`
	WallMS       int64          `json:"wall_ms"` // excluded from determinism comparisons
	ClassTallies map[string]int `json:"class_tallies"`
	Records      []RunRecord    `json:"records"`
}

// DeterministicJSON renders the summary with wall-time fields zeroed —
// the byte-comparable form (same campaign seed, same bytes).
func (s *Summary) DeterministicJSON() ([]byte, error) {
	c := *s
	c.WallMS = 0
	return json.MarshalIndent(&c, "", "  ")
}

// RunSeed derives the i-th run's seed from the campaign seed.
func RunSeed(campaignSeed uint64, i int) uint64 {
	return chaos.Mix64(campaignSeed ^ chaos.Mix64(uint64(i)+1))
}

// Run executes a campaign: Runs randomized scenarios, invariant checks
// on each, and — with Shrink — ddmin minimization of every
// reproducible failure down to a 1-minimal fault sequence. The error
// return covers setup problems only (corpus/autopsy directories);
// invariant failures are reported in the summary.
func Run(cfg Config) (*Summary, error) {
	if cfg.Runs <= 0 {
		return nil, fmt.Errorf("campaign: runs must be positive, got %d", cfg.Runs)
	}
	gen := cfg.Generate
	if gen == nil {
		gen = Synthesize
	}
	for _, dir := range []string{cfg.CorpusDir, cfg.AutopsyDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("campaign: %w", err)
			}
		}
	}
	if cfg.Synthetic != nil {
		if err := cfg.Synthetic.Validate(); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	sum := &Summary{
		Version:      1,
		CampaignSeed: cfg.Seed,
		SeedsRun:     cfg.Runs,
		ClassTallies: make(map[string]int),
		Records:      make([]RunRecord, cfg.Runs),
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	idxCh := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards cfg.Log writes and corpus/autopsy IO ordering
	budget := newAutopsyBudget(cfg.MaxAutopsyFailures)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				rec := runOne(&cfg, gen, i, &mu, budget)
				sum.Records[i] = rec
			}
		}()
	}
	for i := 0; i < cfg.Runs; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	for _, rec := range sum.Records {
		for _, c := range rec.Classes {
			sum.ClassTallies[c]++
		}
		if rec.Failed {
			sum.Failures++
		}
		if sh := rec.Shrink; sh != nil {
			sum.TotalReplays += sh.Replays
			if sh.Reproducible {
				sum.Shrunk++
			}
		}
	}
	sum.WallMS = time.Since(start).Milliseconds()
	return sum, nil
}

// autopsyBudget caps per-failure autopsy persistence campaign-wide.
// The mutex is its own (not the campaign's log/IO mutex) so the cheap
// take() check never serializes behind disk writes.
type autopsyBudget struct {
	mu    sync.Mutex
	left  int
	cap   int
	noted bool
}

// defaultMaxAutopsyFailures is the persistence cap when the config
// leaves MaxAutopsyFailures at zero.
const defaultMaxAutopsyFailures = 25

func newAutopsyBudget(max int) *autopsyBudget {
	if max == 0 {
		max = defaultMaxAutopsyFailures
	}
	return &autopsyBudget{left: max, cap: max}
}

// take consumes one persistence slot; exhausted reports a transition to
// empty exactly once (for the one-time skip log line). A negative cap
// means unlimited.
func (b *autopsyBudget) take() (ok, exhausted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cap < 0 {
		return true, false
	}
	if b.left > 0 {
		b.left--
		return true, false
	}
	if !b.noted {
		b.noted = true
		return false, true
	}
	return false, false
}

// runOne executes run i end to end: generate, run, check, and (on
// failure) shrink + persist.
func runOne(cfg *Config, gen func(uint64) ScenarioSpec, i int, mu *sync.Mutex, budget *autopsyBudget) RunRecord {
	seed := RunSeed(cfg.Seed, i)
	spec := gen(seed)
	rec := RunRecord{
		Index:         i,
		Seed:          seed,
		Scenario:      spec.Name,
		Classes:       spec.Classes(),
		Deterministic: spec.Deterministic,
	}

	sched := chaos.NewSchedule(seed)
	rep := spec.Scenario().RunSchedule(sched, nil)
	cfg.Synthetic.Apply(rep)
	atoms := chaos.AtomsFromDecisions(sched.Decisions())
	if spec.Deterministic {
		rec.FiredAtoms = len(atoms)
		rec.ScheduleFP = fingerprintHash(sched.Fingerprint())
	}
	if !rep.Failed() {
		return rec
	}

	rec.Failed = true
	rec.FailingInvariants = failingNames(rep)
	logf(cfg, mu, "run %d (seed %d, %s): FAIL %s, %d fired atoms\n",
		i, seed, spec.Name, strings.Join(rec.FailingInvariants, ","), len(atoms))
	if cfg.AutopsyDir != "" {
		if ok, exhausted := budget.take(); ok {
			mu.Lock()
			persistAutopsies(cfg.AutopsyDir, spec.Name, rep)
			mu.Unlock()
		} else if exhausted {
			logf(cfg, mu, "autopsy budget (%d failing runs) exhausted; later failures persist no autopsies\n",
				budget.cap)
		}
	}
	if !cfg.Shrink {
		return rec
	}
	rec.Shrink = shrinkFailure(cfg, spec, rec.FailingInvariants, atoms, mu)
	return rec
}

// maxShrinkReplays bounds the pinned replays one failure's shrink may
// spend, the reproduction check included.
const maxShrinkReplays = 400

// shrinkFailure minimizes one failing run's fault schedule via pinned
// replays. The predicate re-runs the scenario under a pinned schedule
// carrying only the kept atoms and asks whether the same invariants
// still fail.
func shrinkFailure(cfg *Config, spec ScenarioSpec, origFailing []string, atoms []chaos.Atom, mu *sync.Mutex) *ShrinkRecord {
	sh := &ShrinkRecord{OriginalAtoms: len(atoms), MinAtoms: len(atoms), Ratio: 1}
	if !spec.Deterministic {
		sh.Skipped = "nondeterministic scenario"
		return sh
	}

	failsWith := func(kept []chaos.Atom) bool {
		return failsSuperset(replayPinned(spec, kept, cfg.Synthetic), origFailing)
	}
	// The recorded schedule must reproduce the failure before ddmin can
	// trust its replays; a failure the full pin set cannot reproduce is
	// flaky and recorded as such.
	minAtoms, stats := mcs.Minimize(atoms, failsWith, maxShrinkReplays)
	sh.Replays = stats.Probes
	if !stats.Reproduced {
		sh.Skipped = "failure did not reproduce under pinned replay"
		return sh
	}
	sh.Reproducible = true
	sh.MinAtoms = len(minAtoms)
	sh.Minimal = stats.Minimal
	if sh.OriginalAtoms > 0 {
		sh.Ratio = float64(sh.MinAtoms) / float64(sh.OriginalAtoms)
	}
	logf(cfg, mu, "  shrunk %s: %d -> %d atoms in %d replays (1-minimal=%v)\n",
		spec.Name, sh.OriginalAtoms, sh.MinAtoms, sh.Replays, sh.Minimal)

	if cfg.CorpusDir != "" {
		entry, err := BuildEntry(cfg.Seed, spec, cfg.Synthetic, origFailing, len(atoms), minAtoms, sh.Replays)
		if err == nil {
			mu.Lock()
			sh.CorpusFile, err = WriteEntry(cfg.CorpusDir, entry)
			mu.Unlock()
		}
		if err != nil {
			logf(cfg, mu, "  corpus write for %s failed: %v\n", spec.Name, err)
		}
	}
	return sh
}

// replayPinned runs the spec's scenario under a pinned schedule
// carrying exactly the kept atoms, synthetic check included.
func replayPinned(spec ScenarioSpec, kept []chaos.Atom, syn *SyntheticCheck) *chaos.Report {
	sched := chaos.NewPinnedSchedule(spec.Seed, kept)
	rep := spec.Scenario().RunSchedule(sched, nil)
	syn.Apply(rep)
	return rep
}

// failsSuperset reports whether rep's failing invariants cover all of
// want — the "same failure" criterion ddmin minimizes against.
func failsSuperset(rep *chaos.Report, want []string) bool {
	got := make(map[string]bool)
	for _, name := range failingNames(rep) {
		got[name] = true
	}
	for _, name := range want {
		if !got[name] {
			return false
		}
	}
	return true
}

func failingNames(rep *chaos.Report) []string {
	var out []string
	for _, iv := range rep.Invariants {
		if iv.Err != nil {
			out = append(out, iv.Name)
		}
	}
	sort.Strings(out)
	return out
}

// persistAutopsies appends a failing run's attached autopsy reports
// (Crash-Pad recoveries plus the synthesized invariant-violation
// autopsy) to dir/<scenario>/autopsies.jsonl for triage. The log's
// store numbers copies of them, so ids keep increasing across the runs
// that share a scenario.
func persistAutopsies(dir, scenario string, rep *chaos.Report) {
	st := flightrec.NewStore(filepath.Join(dir, scenario), 1)
	defer st.Close()
	for _, a := range rep.Autopsies {
		c := *a
		st.Add(&c)
	}
}

// fingerprintHash condenses a schedule fingerprint to a stable 64-bit
// hex token small enough to keep thousand-run summaries readable.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, fp)
	return fmt.Sprintf("%016x", h.Sum64())
}

func logf(cfg *Config, mu *sync.Mutex, format string, args ...any) {
	if cfg.Log == nil {
		return
	}
	mu.Lock()
	fmt.Fprintf(cfg.Log, format, args...)
	mu.Unlock()
}
