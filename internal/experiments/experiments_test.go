package experiments

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.Render()
	for _, want := range []string{"=== X: demo ===", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// requireRow asserts a row whose first cell matches has the expected
// value in the named column.
func requireRow(t *testing.T, tab Table, firstCell, column, want string) {
	t.Helper()
	col := -1
	for i, c := range tab.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no column %q", tab.ID, column)
	}
	for _, r := range tab.Rows {
		if r[0] == firstCell {
			if r[col] != want {
				t.Fatalf("%s: row %q column %q = %q, want %q\n%s",
					tab.ID, firstCell, column, r[col], want, tab.Render())
			}
			return
		}
	}
	t.Fatalf("%s: no row %q\n%s", tab.ID, firstCell, tab.Render())
}

func TestTable1FateSharing(t *testing.T) {
	tab := Table1FateSharing()
	requireRow(t, tab, "monolithic", "controller up", "no")
	requireRow(t, tab, "monolithic", "new flows routed", "no")
	requireRow(t, tab, "isolated", "controller up", "yes")
	requireRow(t, tab, "isolated", "buggy app recovered", "no")
	requireRow(t, tab, "legosdn", "controller up", "yes")
	requireRow(t, tab, "legosdn", "buggy app recovered", "yes")
	requireRow(t, tab, "legosdn", "new flows routed", "yes")
}

func TestTable2AppSurvey(t *testing.T) {
	tab := Table2AppSurvey()
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8\n%s", len(tab.Rows), tab.Render())
	}
	for _, r := range tab.Rows {
		if r[len(r)-1] != "yes" {
			t.Fatalf("app %s not unmodified", r[0])
		}
	}
	requireRow(t, tab, "learning-switch", "stateful (snapshots)", "yes")
	requireRow(t, tab, "hub", "stateful (snapshots)", "no")
}

func TestFigure1ArchLatency(t *testing.T) {
	tab := Figure1ArchLatency(300)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	requireRow(t, tab, "appvisor (UDP proxy/stub)", "order preserved", "yes")
	requireRow(t, tab, "legosdn (+ checkpoint/txn)", "order preserved", "yes")
}

func TestClaimBugCorpusShape(t *testing.T) {
	tab := ClaimBugCorpus(12, 7)
	// Monolithic: some crashes, zero recoveries. LegoSDN: zero crashes.
	requireRow(t, tab, "legosdn", "controller crashes", "0")
	for _, r := range tab.Rows {
		if r[0] == "monolithic" && r[1] == "0" {
			t.Fatalf("monolithic survived a 16%%-catastrophic corpus:\n%s", tab.Render())
		}
	}
}

func TestClaimNetLogRollback(t *testing.T) {
	tab := ClaimNetLogRollback([]int{1, 8})
	for _, r := range tab.Rows {
		if r[2] != "yes" {
			t.Fatalf("rollback not exact for size %s:\n%s", r[0], tab.Render())
		}
	}
}

func TestClaimCrashPadRecovery(t *testing.T) {
	tab := ClaimCrashPadRecovery(3)
	requireRow(t, tab, "absolute", "recovered", "3")
	requireRow(t, tab, "no-compromise", "app left down", "3")
	requireRow(t, tab, "no-compromise", "recovered", "0")
}

func TestClaimEquivalence(t *testing.T) {
	tab := ClaimEquivalence()
	requireRow(t, tab, "equivalence", "app survived", "yes")
	requireRow(t, tab, "equivalence", "unaffected routes intact", "yes")
	for _, r := range tab.Rows {
		if r[0] == "equivalence" && r[2] == "0" {
			t.Fatalf("no transformed events:\n%s", tab.Render())
		}
	}
}

func TestClaimUpgrade(t *testing.T) {
	tab := ClaimUpgrade(4)
	requireRow(t, tab, "monolithic", "state retained", "no")
	requireRow(t, tab, "legosdn", "state retained", "yes")
}

func TestClaimAtomicUpdate(t *testing.T) {
	tab := ClaimAtomicUpdate()
	requireRow(t, tab, "none (isolated mode)", "atomic", "no")
	requireRow(t, tab, "netlog transactions", "atomic", "yes")
	requireRow(t, tab, "delay buffer (§4.1 prototype)", "atomic", "yes")
}

func TestClaimCheckpointSweep(t *testing.T) {
	tab := ClaimCheckpointSweep([]int{1, 8}, 60)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// N=1: one checkpoint per event, plus the pre-crash event's own
	// checkpoint and the post-recovery rebaseline.
	requireRow(t, tab, "1", "checkpoints taken", "62")
	// N=8: the crash is aligned to the worst point in the cadence, so
	// recovery replays the maximal N-1 suffix.
	requireRow(t, tab, "8", "replayed at recovery", "7")
}

func TestClaimCloneSwitchover(t *testing.T) {
	tab := ClaimCloneSwitchover(60)
	requireRow(t, tab, "primary + hot clone", "crash masked", "yes")
	requireRow(t, tab, "primary + hot clone", "events lost", "0")
	requireRow(t, tab, "primary only", "events lost", "1")
}

func TestClaimNVersion(t *testing.T) {
	tab := ClaimNVersion(60)
	requireRow(t, tab, "3", "wrong outputs forwarded", "0")
	if tab.Rows[0][3] == "0" {
		t.Fatalf("no disagreements recorded:\n%s", tab.Render())
	}
}

func TestClaimMCS(t *testing.T) {
	tab := ClaimMCS(30)
	requireRow(t, tab, "30", "minimal length", "2")
}

func TestClaimResourceLimits(t *testing.T) {
	tab := ClaimResourceLimits(100)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// With limits, the rogue handles far fewer events.
	var unlimited, limited string
	for _, r := range tab.Rows {
		if r[0] == "no limits" {
			unlimited = r[2]
		} else {
			limited = r[2]
		}
	}
	if unlimited == limited {
		t.Fatalf("limiter had no effect:\n%s", tab.Render())
	}
}

func TestClaimInvariantEscalation(t *testing.T) {
	tab := ClaimInvariantEscalation()
	requireRow(t, tab, "no", "violation detected", "yes")
	requireRow(t, tab, "no", "network shut down", "no")
	requireRow(t, tab, "yes", "network shut down", "yes")
}

func TestClaimControlLoop(t *testing.T) {
	tab := ClaimControlLoop(3)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestClaimChaosSearch(t *testing.T) {
	tab := ClaimChaosSearch(true)
	if len(tab.Rows) == 0 {
		t.Fatalf("S1 shrank nothing:\n%s", tab.Render())
	}
	for _, r := range tab.Rows {
		if r[5] != "true" {
			t.Fatalf("S1 row not 1-minimal:\n%s", tab.Render())
		}
	}
	if tab.Values["s1_shrunk"] < 1 {
		t.Fatalf("s1_shrunk = %v", tab.Values["s1_shrunk"])
	}
	if tab.Values["s1_avg_shrink_ratio"] > 0.25 {
		t.Fatalf("avg shrink ratio %v exceeds the 25%% acceptance bar:\n%s",
			tab.Values["s1_avg_shrink_ratio"], tab.Render())
	}
}
