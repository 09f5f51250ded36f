package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"legosdn/internal/chaos"
	"legosdn/internal/flightrec"
)

// cheapSpec is a fast deterministic generator for tests: duplicated and
// delayed datagrams only (no timeout-driven recovery), so a full run
// completes in well under a second and every run fires wire atoms.
func cheapSpec(runSeed uint64) ScenarioSpec {
	return ScenarioSpec{
		Name:            fmt.Sprintf("cheap-%016x", runSeed),
		Seed:            runSeed,
		Switches:        1,
		Apps:            2,
		Events:          24,
		CheckpointEvery: 4,
		EventTimeoutMS:  250,
		Dup:             0.12,
		Delay:           0.06,
		Deterministic:   true,
	}
}

// The generator is a pure function of the run seed, and every spec it
// emits is valid and arms at least one fault class.
func TestSynthesizeDeterministicAndValid(t *testing.T) {
	for i := 0; i < 200; i++ {
		seed := RunSeed(99, i)
		a, b := Synthesize(seed), Synthesize(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two syntheses differ:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid spec: %v\n%+v", seed, err, a)
		}
		if len(a.Classes()) == 0 {
			t.Fatalf("seed %d: generated spec arms no fault class: %+v", seed, a)
		}
		if (a.InverseFailProb > 0 || a.DisconnectProb > 0) && a.CrashEvery == 0 {
			t.Fatalf("seed %d: netlog faults without armed crashes can never fire: %+v", seed, a)
		}
	}
}

// Satellite: same campaign seed => byte-identical scenario set,
// schedule fingerprints and summary JSON (wall-time fields excluded),
// independent of worker count — mirroring the PR 4 same-seed replay
// guarantee at campaign scale.
func TestCampaignSameSeedByteIdentical(t *testing.T) {
	run := func(parallel int) *Summary {
		sum, err := Run(Config{Seed: 7, Runs: 6, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(1), run(3)

	for i := range a.Records {
		if a.Records[i].Scenario != b.Records[i].Scenario || a.Records[i].Seed != b.Records[i].Seed {
			t.Fatalf("run %d scenario set differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
		if a.Records[i].ScheduleFP != b.Records[i].ScheduleFP {
			t.Errorf("run %d schedule fingerprint differs: %s vs %s",
				i, a.Records[i].ScheduleFP, b.Records[i].ScheduleFP)
		}
	}
	aj, err := a.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.DeterministicJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Errorf("summaries differ byte-for-byte:\n--- serial ---\n%s\n--- parallel ---\n%s", aj, bj)
	}
	if a.WallMS < 0 {
		t.Error("negative wall time")
	}
}

// Acceptance: a seeded campaign under a deliberately-broken invariant
// (the synthetic test hook) finds the failure, shrinks its schedule to
// a 1-minimal reproducer at <= 25% of the original decision count, and
// persists a corpus entry that replays byte-for-byte.
func TestCampaignFindsAndShrinksBrokenInvariant(t *testing.T) {
	corpus := t.TempDir()
	autopsies := t.TempDir()
	var log bytes.Buffer
	sum, err := Run(Config{
		Seed:       11,
		Runs:       2,
		Shrink:     true,
		Parallel:   2,
		CorpusDir:  corpus,
		AutopsyDir: autopsies,
		Synthetic:  &SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/dup", N: 1},
		Generate:   cheapSpec,
		Log:        &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failures == 0 {
		t.Fatalf("campaign found no failures under the broken invariant:\n%s", log.String())
	}
	if sum.Shrunk == 0 {
		t.Fatalf("no failure shrunk:\n%s", log.String())
	}
	verified := 0
	for _, rec := range sum.Records {
		if !rec.Failed {
			continue
		}
		sh := rec.Shrink
		if sh == nil || !sh.Reproducible {
			t.Fatalf("failed run %d not reproducible: %+v", rec.Index, sh)
		}
		if !sh.Minimal {
			t.Errorf("run %d shrink not 1-minimal (%d replays)", rec.Index, sh.Replays)
		}
		if sh.MinAtoms != 1 {
			t.Errorf("run %d minimized to %d atoms, want 1 (single dup reproduces fired-at-least n=1)",
				rec.Index, sh.MinAtoms)
		}
		if sh.Ratio > 0.25 {
			t.Errorf("run %d shrink ratio %.2f exceeds the 25%% acceptance bar (%d -> %d)",
				rec.Index, sh.Ratio, sh.OriginalAtoms, sh.MinAtoms)
		}
		if sh.CorpusFile == "" {
			t.Fatalf("run %d: no corpus entry written", rec.Index)
		}
		data, err := os.ReadFile(filepath.Join(corpus, sh.CorpusFile))
		if err != nil {
			t.Fatal(err)
		}
		e, err := DecodeEntry(data)
		if err != nil {
			t.Fatalf("corpus entry %s: %v", sh.CorpusFile, err)
		}
		if err := VerifyEntry(e); err != nil {
			t.Errorf("corpus entry %s does not replay byte-for-byte: %v", sh.CorpusFile, err)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no corpus entry verified")
	}
	if sum.TotalReplays == 0 {
		t.Error("shrinking reported zero replays")
	}
}

// Without the broken-invariant hook the same campaign passes clean —
// the hook, not the harness, is what fails.
func TestCampaignCleanWithoutHook(t *testing.T) {
	sum, err := Run(Config{Seed: 11, Runs: 2, Parallel: 2, Generate: cheapSpec})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failures != 0 {
		t.Fatalf("clean campaign reported %d failures: %+v", sum.Failures, sum.Records)
	}
}

// Setup problems are errors (exit code 2 territory), not invariant
// failures.
func TestCampaignSetupErrors(t *testing.T) {
	if _, err := Run(Config{Seed: 1, Runs: 0}); err == nil {
		t.Error("runs=0 accepted")
	}
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Seed: 1, Runs: 1, CorpusDir: filepath.Join(blocker, "sub")}); err == nil {
		t.Error("corpus dir under a regular file accepted")
	}
	if _, err := Run(Config{Seed: 1, Runs: 1, Synthetic: &SyntheticCheck{Kind: "bogus"}}); err == nil {
		t.Error("bogus synthetic check accepted")
	}
}

// Synthetic check predicate semantics, including per-app prefix
// matching of wire points.
func TestSyntheticCheck(t *testing.T) {
	rep := replayPinned(cheapSpec(3), nil, nil) // no faults fire
	if n := firedAt(rep, "appvisor/dup"); n != 0 {
		t.Fatalf("pinned-empty replay fired %d dups", n)
	}
	mustFail := func(c SyntheticCheck, fired map[string]int, want bool) {
		t.Helper()
		rep := replayPinned(cheapSpec(3), nil, nil)
		rep.Fired = fired
		rep.Invariants = nil
		c.Apply(rep)
		if got := rep.Failed(); got != want {
			t.Errorf("%+v over %v: failed=%v, want %v", c, fired, got, want)
		}
	}
	mustFail(SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/dup", N: 2},
		map[string]int{"appvisor/dup/rec0": 1, "appvisor/dup/rec1": 1}, true)
	mustFail(SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/dup", N: 3},
		map[string]int{"appvisor/dup/rec0": 2}, false)
	mustFail(SyntheticCheck{Kind: SyntheticFiredPair, Point: "appvisor/kill", Point2: "netsim/flap"},
		map[string]int{"appvisor/kill": 1, "netsim/flap": 2}, true)
	mustFail(SyntheticCheck{Kind: SyntheticFiredPair, Point: "appvisor/kill", Point2: "netsim/flap"},
		map[string]int{"appvisor/kill": 1}, false)
	// Prefix matching must not cross path-segment boundaries.
	mustFail(SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/d", N: 1},
		map[string]int{"appvisor/dup/rec0": 1}, false)
}

// Regeneration hook for the committed regression corpus: run with
// CHAOS_CORPUS_REGEN=1 to rewrite testdata/chaos-corpus at the repo
// root from the canonical campaign below. The committed entries are
// what TestChaosCorpusReplay (repo root) replays on every test run.
func TestRegenerateCommittedCorpus(t *testing.T) {
	if os.Getenv("CHAOS_CORPUS_REGEN") == "" {
		t.Skip("set CHAOS_CORPUS_REGEN=1 to regenerate testdata/chaos-corpus")
	}
	dir := filepath.Join("..", "..", "..", "testdata", "chaos-corpus")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	sum, err := Run(Config{
		Seed:      11,
		Runs:      2,
		Shrink:    true,
		CorpusDir: dir,
		Synthetic: &SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/dup", N: 1},
		Generate:  cheapSpec,
		Log:       os.Stderr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shrunk == 0 {
		t.Fatal("regeneration campaign shrank nothing; corpus would be empty")
	}
	entries, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range entries {
		names = append(names, name)
	}
	t.Logf("regenerated %d corpus entries: %s", len(entries), strings.Join(names, ", "))
}

// Two failing runs of one scenario append to the scenario's one log:
// every line parses and ids keep increasing, while the reports handed
// in keep their own ids.
func TestPersistAutopsiesAppendsToOneLog(t *testing.T) {
	dir := t.TempDir()
	rep := &chaos.Report{Autopsies: []*flightrec.Autopsy{
		{ID: 1, App: "a", Trigger: "app-crash"},
		{ID: 2, App: "chaos", Trigger: "chaos-invariant"},
	}}
	persistAutopsies(dir, "s", rep)
	persistAutopsies(dir, "s", rep)
	data, err := os.ReadFile(filepath.Join(dir, "s", "autopsies.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var a flightrec.Autopsy
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		ids = append(ids, a.ID)
	}
	if !reflect.DeepEqual(ids, []int{1, 2, 3, 4}) || rep.Autopsies[1].ID != 2 {
		t.Fatalf("log ids %v, report ids %d %d; want [1 2 3 4], 1 2", ids, rep.Autopsies[0].ID, rep.Autopsies[1].ID)
	}
}

// Satellite: the per-failure autopsy persistence is bounded: the
// budget admits exactly MaxAutopsyFailures failing runs, logs its
// exhaustion once, and a negative cap is unlimited.
func TestCampaignAutopsyBudget(t *testing.T) {
	b := newAutopsyBudget(2)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("take %d refused within budget", i)
		}
	}
	if ok, exhausted := b.take(); ok || !exhausted {
		t.Fatalf("first over-budget take = (%v, %v), want (false, true)", ok, exhausted)
	}
	if ok, exhausted := b.take(); ok || exhausted {
		t.Fatalf("later over-budget take = (%v, %v), want (false, false): exhaustion noted once", ok, exhausted)
	}
	unlimited := newAutopsyBudget(-1)
	for i := 0; i < 100; i++ {
		if ok, _ := unlimited.take(); !ok {
			t.Fatal("negative cap must be unlimited")
		}
	}
	if def := newAutopsyBudget(0); def.cap != defaultMaxAutopsyFailures {
		t.Fatalf("zero cap defaulted to %d, want %d", def.cap, defaultMaxAutopsyFailures)
	}

	// End to end: every run fails under the hook; with a budget of 1
	// the exhaustion is logged exactly once and later failures skip
	// persistence silently.
	var log bytes.Buffer
	sum, err := Run(Config{
		Seed:               13,
		Runs:               3,
		AutopsyDir:         t.TempDir(),
		MaxAutopsyFailures: 1,
		Synthetic:          &SyntheticCheck{Kind: SyntheticFiredAtLeast, Point: "appvisor/dup", N: 1},
		Generate:           cheapSpec,
		Log:                &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failures != 3 {
		t.Fatalf("failures = %d, want 3 (hook fails every run)", sum.Failures)
	}
	if got := strings.Count(log.String(), "autopsy budget"); got != 1 {
		t.Fatalf("budget exhaustion logged %d times, want once:\n%s", got, log.String())
	}
}

// Failover specs resolve to the ha-* Custom scenarios, carry the
// exclusive failover class, and are rejected when malformed.
func TestFailoverSpecs(t *testing.T) {
	sp := ScenarioSpec{
		Name: "f", Seed: 1, Switches: 1, Apps: 1, Events: 12,
		CheckpointEvery: 4, EventTimeoutMS: 150,
		Failover: "ha-kill-leader-mid-txn",
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid failover spec rejected: %v", err)
	}
	if got := sp.Classes(); len(got) != 1 || got[0] != "failover" {
		t.Fatalf("classes = %v, want [failover]", got)
	}
	sc := sp.Scenario()
	if sc.Custom == nil {
		t.Fatal("failover spec did not resolve to a Custom scenario")
	}
	if sc.Deterministic {
		t.Fatal("failover scenario marked deterministic")
	}
	if sc.Events != 12 {
		t.Fatalf("spec workload sizing not carried over: events = %d", sc.Events)
	}

	sp.Failover = "ha-no-such-scenario"
	if err := sp.Validate(); err == nil {
		t.Fatal("unknown failover scenario accepted")
	}
	sp.Failover = "ha-kill-leader-mid-txn"
	sp.Deterministic = true
	if err := sp.Validate(); err == nil {
		t.Fatal("deterministic failover spec accepted")
	}
}

// Synthesize emits failover specs at its fixed draw rate, and every
// one validates.
func TestSynthesizeEmitsFailoverSpecs(t *testing.T) {
	found := 0
	for i := 0; i < 400; i++ {
		sp := Synthesize(RunSeed(42, i))
		if sp.Failover == "" {
			continue
		}
		found++
		if err := sp.Validate(); err != nil {
			t.Fatalf("synthesized failover spec invalid: %v\n%+v", err, sp)
		}
		if sp.Deterministic {
			t.Fatalf("synthesized failover spec deterministic: %+v", sp)
		}
	}
	if found == 0 {
		t.Fatal("400 syntheses produced no failover spec (expected ~1 in 8)")
	}
}
