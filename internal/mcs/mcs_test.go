package mcs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
)

func evts(seqs ...uint64) []controller.Event {
	out := make([]controller.Event, len(seqs))
	for i, s := range seqs {
		out[i] = controller.Event{Seq: s, Kind: controller.EventPacketIn}
	}
	return out
}

func seqs(events []controller.Event) []uint64 {
	out := make([]uint64, len(events))
	for i, e := range events {
		out[i] = e.Seq
	}
	return out
}

// failsIfContains builds a predicate that fails iff all the named seqs
// are present, in order.
func failsIfContains(required ...uint64) func([]controller.Event) bool {
	return func(events []controller.Event) bool {
		i := 0
		for _, e := range events {
			if i < len(required) && e.Seq == required[i] {
				i++
			}
		}
		return i == len(required)
	}
}

func TestMinimizeSingleCulprit(t *testing.T) {
	trace := evts(1, 2, 3, 4, 5, 6, 7, 8)
	min, st := Minimize(trace, failsIfContains(5), 0)
	if len(min) != 1 || min[0].Seq != 5 {
		t.Fatalf("minimal = %v", seqs(min))
	}
	if !st.Reproduced || !st.Minimal || st.Probes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMinimizePair(t *testing.T) {
	trace := evts(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	min, _ := Minimize(trace, failsIfContains(3, 9), 0)
	got := seqs(min)
	if len(got) != 2 || got[0] != 3 || got[1] != 9 {
		t.Fatalf("minimal = %v", got)
	}
}

func TestMinimizeNonFailingTrace(t *testing.T) {
	min, st := Minimize(evts(1, 2, 3), func([]controller.Event) bool { return false }, 0)
	if min != nil || st.Reproduced {
		t.Fatalf("non-failing trace minimized to %v", seqs(min))
	}
	if st.Probes != 1 {
		t.Fatalf("non-failing trace spent %d probes, want only the reproduction check", st.Probes)
	}
	if min, _ := Minimize(nil, failsIfContains(), 0); min != nil {
		t.Fatal("empty trace should yield nil")
	}
}

func TestMinimizeWholeTraceNeeded(t *testing.T) {
	trace := evts(1, 2, 3, 4)
	min, _ := Minimize(trace, failsIfContains(1, 2, 3, 4), 0)
	if len(min) != 4 {
		t.Fatalf("minimal = %v", seqs(min))
	}
}

// Property: the result always fails, and removing any one event makes
// it pass (1-minimality), for random required subsets.
func TestQuickMinimizeOneMinimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(20)
		trace := make([]controller.Event, n)
		for i := range trace {
			trace[i] = controller.Event{Seq: uint64(i + 1)}
		}
		// Pick 1-3 random required events (ordered).
		k := 1 + r.Intn(3)
		required := map[uint64]bool{}
		for len(required) < k {
			required[uint64(1+r.Intn(n))] = true
		}
		var req []uint64
		for i := 1; i <= n; i++ {
			if required[uint64(i)] {
				req = append(req, uint64(i))
			}
		}
		fails := failsIfContains(req...)
		min, _ := Minimize(trace, fails, 0)
		if !fails(min) {
			return false
		}
		for drop := range min {
			reduced := append(append([]controller.Event(nil), min[:drop]...), min[drop+1:]...)
			if fails(reduced) {
				return false // not 1-minimal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReplayFails(t *testing.T) {
	// App crashes when it has seen two PacketIns with seq >= 10.
	newApp := func() controller.App { return &accApp{} }
	fails := ReplayFails(newApp, nil)
	if !fails(evts(10, 11)) {
		t.Fatal("predicate should fail on two big seqs")
	}
	if fails(evts(1, 10)) {
		t.Fatal("predicate should pass on one big seq")
	}
	// Use it end-to-end with Minimize.
	min, _ := Minimize(evts(1, 2, 10, 3, 11, 4), fails, 0)
	got := seqs(min)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("minimal = %v", got)
	}
}

// accApp crashes when the accumulated big-seq count reaches 2 — a
// multi-event (cumulative) failure, the §5 scenario.
type accApp struct{ big int }

func (a *accApp) Name() string                          { return "acc" }
func (a *accApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }
func (a *accApp) HandleEvent(_ controller.Context, ev controller.Event) error {
	if ev.Seq >= 10 {
		a.big++
		if a.big >= 2 {
			panic("cumulative failure")
		}
	}
	return nil
}

func TestPickCheckpoint(t *testing.T) {
	store := checkpoint.NewStore(0)
	store.Put("acc", 1, []byte("a"))
	store.Put("acc", 8, []byte("b"))
	store.Put("acc", 12, []byte("c"))

	cp := PickCheckpoint(store, "acc", evts(10, 11))
	if cp == nil || cp.Seq != 8 {
		t.Fatalf("checkpoint = %+v", cp)
	}
	if PickCheckpoint(store, "acc", nil) != nil {
		t.Fatal("empty minimal should pick nothing")
	}
	if got := PickCheckpoint(store, "acc", evts(13)); got == nil || got.Seq != 12 {
		t.Fatalf("checkpoint = %+v", got)
	}
}

// ints returns the positions 0..n-1: over them, kept items and kept
// positions coincide.
func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// contains reports whether sorted keep includes v.
func contains(keep []int, v int) bool {
	i := sort.SearchInts(keep, v)
	return i < len(keep) && keep[i] == v
}

// Table-driven minimizer checks against synthetic failure predicates
// with known minimal subsets. Each case asserts the exact minimum,
// 1-minimality, and a bound on how many probes the search spent (the
// reproduction check included) — the budget a campaign's shrink phase
// inherits.
func TestMinimize(t *testing.T) {
	cases := []struct {
		name      string
		n         int
		fails     func(keep []int) bool
		want      []int
		maxProbes int // probe bound the search must respect
	}{
		{
			// One culprit: ddmin's best case, logarithmic-ish descent.
			name:      "single-culprit",
			n:         32,
			fails:     func(keep []int) bool { return contains(keep, 17) },
			want:      []int{17},
			maxProbes: 40,
		},
		{
			name:      "single-culprit-first",
			n:         16,
			fails:     func(keep []int) bool { return contains(keep, 0) },
			want:      []int{0},
			maxProbes: 40,
		},
		{
			// Pair interaction across chunk boundaries: both elements
			// must survive every partition.
			name:      "pair-interaction",
			n:         24,
			fails:     func(keep []int) bool { return contains(keep, 3) && contains(keep, 20) },
			want:      []int{3, 20},
			maxProbes: 120,
		},
		{
			// Order-dependent pair: fails only when 5 appears before 18
			// in the kept subsequence. Subsets preserve original order,
			// so the minimal reproducer is exactly {5, 18}.
			name: "order-dependent-pair",
			n:    24,
			fails: func(keep []int) bool {
				seen5 := false
				for _, v := range keep {
					if v == 5 {
						seen5 = true
					}
					if v == 18 {
						return seen5
					}
				}
				return false
			},
			want:      []int{5, 18},
			maxProbes: 120,
		},
		{
			// Threshold failure: any 3 of the first 6 elements suffice.
			// ddmin must still land on some 3-element 1-minimal subset.
			name: "any-three-of-six",
			n:    12,
			fails: func(keep []int) bool {
				c := 0
				for _, v := range keep {
					if v < 6 {
						c++
					}
				}
				return c >= 3
			},
			want:      nil, // size-checked below
			maxProbes: 150,
		},
		{
			// Schedule-independent failure: the empty set reproduces,
			// found by the reproduction check plus one probe.
			name:      "independent-of-atoms",
			n:         8,
			fails:     func(keep []int) bool { return true },
			want:      []int{},
			maxProbes: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			got, stats := Minimize(ints(tc.n), tc.fails, 0)
			if !tc.fails(got) && tc.name != "independent-of-atoms" {
				t.Fatalf("result %v does not fail", got)
			}
			if tc.want != nil {
				if len(got) != len(tc.want) {
					t.Fatalf("minimized to %v, want %v", got, tc.want)
				}
				for i := range got {
					if got[i] != tc.want[i] {
						t.Fatalf("minimized to %v, want %v", got, tc.want)
					}
				}
			} else if len(got) != 3 {
				t.Fatalf("minimized to %d elements %v, want any 3", len(got), got)
			}
			if !stats.Reproduced || !stats.Minimal {
				t.Errorf("result not marked reproduced and 1-minimal: %+v", stats)
			}
			// Independent 1-minimality check: removing any one element
			// must make the predicate pass.
			for i := range got {
				reduced := append(append([]int(nil), got[:i]...), got[i+1:]...)
				if tc.fails(reduced) {
					t.Errorf("not 1-minimal: still fails without element %d (%v)", got[i], reduced)
				}
			}
			if stats.Probes > tc.maxProbes {
				t.Errorf("spent %d probes, budget %d", stats.Probes, tc.maxProbes)
			}
			t.Logf("%s: %d items -> %v in %d probes (%d cache hits)",
				tc.name, tc.n, got, stats.Probes, stats.CacheHits)
		})
	}
}

// The maxProbes budget stops the search early and reports Minimal=false
// rather than claiming a guarantee it didn't earn.
func TestMinimizeBudget(t *testing.T) {
	calls := 0
	fails := func(keep []int) bool {
		calls++
		return contains(keep, 40) && contains(keep, 41)
	}
	got, stats := Minimize(ints(64), fails, 5)
	if stats.Probes > 5 || calls != stats.Probes {
		t.Fatalf("budget 5 but ran %d probes (%d predicate calls)", stats.Probes, calls)
	}
	if stats.Minimal {
		t.Error("budget-stopped search claims 1-minimality")
	}
	// The best-so-far subset must still contain the culprits (it only
	// ever narrows to failing subsets).
	if !contains(got, 40) || !contains(got, 41) {
		t.Errorf("budget-stopped result %v lost the culprits", got)
	}
}

// The predicate result cache means a deterministic predicate is never
// re-evaluated for the same subset.
func TestMinimizeCacheNoRepeats(t *testing.T) {
	seen := make(map[string]int)
	fails := func(keep []int) bool {
		seen[fmt.Sprint(keep)]++
		return contains(keep, 7)
	}
	_, stats := Minimize(ints(16), fails, 0)
	for k, n := range seen {
		if n > 1 {
			t.Errorf("subset %q evaluated %d times", k, n)
		}
	}
	if stats.CacheHits == 0 {
		t.Log("no cache hits for this shape (fine, but unexpected for gran=2 complements)")
	}
}

// An empty input costs exactly its reproduction check: a failure that
// needs no items minimizes to the empty set, one that does not fail is
// not reproduced.
func TestMinimizeEmpty(t *testing.T) {
	for _, fail := range []bool{false, true} {
		calls := 0
		got, stats := Minimize(nil, func(keep []int) bool {
			calls++
			if len(keep) != 0 {
				t.Fatalf("empty input probed with %v", keep)
			}
			return fail
		}, 0)
		if len(got) != 0 || calls != 1 || stats.Probes != 1 {
			t.Fatalf("empty input (fails=%v) returned %v after %d probes, %d calls", fail, got, stats.Probes, calls)
		}
		if stats.Reproduced != fail || stats.Minimal != fail {
			t.Fatalf("empty input (fails=%v): %+v", fail, stats)
		}
	}
}
