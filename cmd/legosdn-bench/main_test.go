package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"legosdn/internal/chaos"
	"legosdn/internal/chaos/campaign"
)

// -chaos-only with an unknown name must exit with the setup-error code
// and the help text must list the library sorted, so the user can scan
// for the name they meant.
func TestChaosScenarioNamesSorted(t *testing.T) {
	names := chaosScenarioNames()
	if len(names) == 0 {
		t.Fatal("empty scenario library")
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("scenario names not sorted: %v", names)
	}
}

func TestRunChaosUnknownScenarioIsSetupError(t *testing.T) {
	if code := runChaos(1, "no-such-scenario", false, ""); code != exitSetupError {
		t.Fatalf("unknown scenario exited %d, want %d", code, exitSetupError)
	}
}

// -only must account for every id in the spec: one known id must not
// hide an unknown one, or a script naming a removed experiment silently
// runs less than it asked for.
func TestSelectExperiments(t *testing.T) {
	var all []string
	for _, e := range index {
		all = append(all, e.id)
	}
	for _, tc := range []struct {
		spec    string
		run     []string
		unknown []string
	}{
		{spec: "", run: all},
		{spec: "C3", run: []string{"C3"}},
		{spec: "c3, s1", run: []string{"C3", "S1"}},
		{spec: " S1 ,C3,c3", run: []string{"C3", "S1"}}, // index order, no duplicates
		{spec: "C3,P2", run: []string{"C3"}, unknown: []string{"P2"}},
		{spec: "P2, r1", unknown: []string{"P2", "r1"}},
		{spec: "C3,", run: []string{"C3"}, unknown: []string{""}},
	} {
		run, unknown := selectExperiments(tc.spec)
		var ids []string
		for _, e := range run {
			ids = append(ids, e.id)
		}
		if !slices.Equal(ids, tc.run) {
			t.Errorf("-only %q runs %v, want %v", tc.spec, ids, tc.run)
		}
		if !slices.Equal(unknown, tc.unknown) {
			t.Errorf("-only %q unknown ids %q, want %q", tc.spec, unknown, tc.unknown)
		}
	}
}

// Exit codes must separate "an invariant failed" (1) from "the run
// could not be set up" (2): CI treats the former as a regression and
// the latter as a broken job.
func TestRunCampaignExitCodes(t *testing.T) {
	// Setup error: nonsensical run count.
	if code := runCampaign(campaignOpts{seed: 1, runs: -1}); code != exitSetupError {
		t.Fatalf("runs=-1 exited %d, want %d", code, exitSetupError)
	}

	// Setup error: corpus replay over a malformed entry.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "entry-bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runCampaign(campaignOpts{replayDir: dir}); code != exitSetupError {
		t.Fatalf("malformed corpus exited %d, want %d", code, exitSetupError)
	}

	// Clean: replaying an empty corpus is a no-op success.
	if code := runCampaign(campaignOpts{replayDir: t.TempDir()}); code != exitOK {
		t.Fatal("empty corpus replay not exitOK")
	}

	// Invariant failure: a corpus entry whose recorded oracle no longer
	// matches the replay must exit 1, not 2 — that is the regression
	// signal the corpus exists to raise.
	spec := campaign.ScenarioSpec{
		Name: "exitcode-probe", Seed: campaign.RunSeed(11, 0),
		Switches: 1, Apps: 2, Events: 24, CheckpointEvery: 4,
		EventTimeoutMS: 250, Dup: 0.12, Delay: 0.06, Deterministic: true,
	}
	syn := &campaign.SyntheticCheck{Kind: campaign.SyntheticFiredAtLeast, Point: "appvisor/dup", N: 1}
	sched := chaos.NewSchedule(spec.Seed)
	rep := spec.Scenario().RunSchedule(sched, nil)
	syn.Apply(rep)
	if !rep.Failed() {
		t.Fatal("probe scenario did not trip the synthetic check")
	}
	atoms := chaos.AtomsFromDecisions(sched.Decisions())
	var failing []string
	for _, iv := range rep.Invariants {
		if iv.Err != nil {
			failing = append(failing, iv.Name)
		}
	}
	entry, err := campaign.BuildEntry(11, spec, syn, failing, len(atoms), atoms, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry.ReplayRender += "stale oracle\n"
	tampered := t.TempDir()
	if _, err := campaign.WriteEntry(tampered, entry); err != nil {
		t.Fatal(err)
	}
	if code := runCampaign(campaignOpts{replayDir: tampered}); code != exitInvariantFail {
		t.Fatalf("diverged corpus entry exited %d, want %d", code, exitInvariantFail)
	}
}
