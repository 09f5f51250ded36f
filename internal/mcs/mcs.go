// Package mcs finds Minimal Causal Sequences: the smallest subsequence
// of a failing input that still fails. It plays the role STS plays in
// §5 of the LegoSDN paper. Crash-Pad minimizes a recorded event trace
// against fresh app replicas when a failure is induced by an
// accumulation of events rather than the last one, and rolls back to
// the checkpoint preceding the first inducing event; chaos campaigns
// shrink a failing run's fault schedule to the fault atoms it needs.
//
// The minimizer is the classic ddmin delta-debugging algorithm
// (Zeller-Hildebrandt, "Simplifying and Isolating Failure-Inducing
// Input") over subsequences, with memoization of tested subsets. It
// assumes the failure predicate is deterministic, which is the paper's
// stated assumption for SDN-App bugs.
package mcs

import (
	"strconv"

	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// Stats describes one minimization run.
type Stats struct {
	// Probes counts predicate evaluations, the reproduction check on the
	// whole input included; cache hits are free and not counted.
	Probes    int
	CacheHits int
	// Reproduced is false when the whole input did not fail; nothing was
	// minimized then.
	Reproduced bool
	// Minimal is true when the result is provably 1-minimal: removing
	// any single remaining item makes the predicate pass. It is false
	// when the input did not reproduce or maxProbes stopped the search.
	Minimal bool
}

// Minimize returns a 1-minimal subsequence of items that still fails:
// removing any single item from the result makes the failure vanish.
// fails receives subsequences in their original order (so
// order-dependent failures minimize correctly) and must be
// deterministic: every result is cached by the kept positions and never
// re-evaluated.
//
// The whole input is probed first; if it does not fail, Minimize
// returns nil with Reproduced false. If the empty subsequence fails,
// the failure needs no items and the result is empty. maxProbes <= 0
// means unbounded; when the budget stops the search early, the
// smallest still-failing subsequence found so far is returned with
// Minimal false.
func Minimize[T any](items []T, fails func([]T) bool, maxProbes int) ([]T, Stats) {
	var st Stats
	cache := make(map[string]bool)
	budgetHit := false
	pick := func(keep []int) []T {
		sub := make([]T, len(keep))
		for j, p := range keep {
			sub[j] = items[p]
		}
		return sub
	}
	var key []byte
	probe := func(keep []int) bool {
		key = key[:0]
		for _, p := range keep {
			key = strconv.AppendInt(key, int64(p), 10)
			key = append(key, ',')
		}
		if v, ok := cache[string(key)]; ok {
			st.CacheHits++
			return v
		}
		if maxProbes > 0 && st.Probes >= maxProbes {
			budgetHit = true
			return false
		}
		st.Probes++
		v := fails(pick(keep))
		cache[string(key)] = v
		return v
	}

	cur := make([]int, len(items))
	for i := range cur {
		cur[i] = i
	}
	if !probe(cur) {
		return nil, st
	}
	st.Reproduced = true
	// Degenerate fast path: a failure that needs no items at all (a
	// chaos failure independent of the fault schedule) is worth knowing
	// early and cheaply.
	if probe(nil) {
		st.Minimal = true
		return nil, st
	}

	gran := 2
	for len(cur) >= 2 && !budgetHit {
		k := min(gran, len(cur))
		reduced := false
		// Try each chunk alone, then each complement.
		for i := 0; i < k && !reduced; i++ {
			if c := cur[i*len(cur)/k : (i+1)*len(cur)/k]; probe(c) {
				cur, gran, reduced = c, 2, true
			}
		}
		for i := 0; i < k && !reduced; i++ {
			lo, hi := i*len(cur)/k, (i+1)*len(cur)/k
			if comp := append(cur[:lo:lo], cur[hi:]...); probe(comp) {
				cur, gran, reduced = comp, max(gran-1, 2), true
			}
		}
		if !reduced {
			if gran >= len(cur) {
				// Every single-item removal passed: 1-minimal.
				st.Minimal = !budgetHit
				break
			}
			gran = min(2*gran, len(cur))
		}
	}
	if len(cur) <= 1 && !budgetHit {
		st.Minimal = true
	}
	return pick(cur), st
}

// ReplayFails builds a deterministic failure predicate over event
// sequences: instantiate a fresh app via newApp, feed it the candidate
// events, and report whether it panics. The replica reads ctx (which
// may be a no-op recorder) for switches, ports, topology and stats, but
// its writes are dropped: a probe never reaches the network.
func ReplayFails(newApp func() controller.App, ctx controller.Context) func([]controller.Event) bool {
	dry := dryContext{ctx}
	return func(events []controller.Event) (crashed bool) {
		app := newApp()
		defer func() {
			if recover() != nil {
				crashed = true
			}
		}()
		for _, ev := range events {
			_ = app.HandleEvent(dry, ev)
		}
		return false
	}
}

// dryContext forwards reads to the wrapped context and drops every
// message a minimization probe would send.
type dryContext struct{ controller.Context }

func (dryContext) SendMessage(uint64, openflow.Message) error      { return nil }
func (dryContext) SendFlowMod(uint64, *openflow.FlowMod) error     { return nil }
func (dryContext) SendPacketOut(uint64, *openflow.PacketOut) error { return nil }
func (dryContext) Barrier(uint64) error                            { return nil }

// PickCheckpoint chooses the checkpoint Crash-Pad should roll back to
// once the minimal sequence is known: the newest image strictly older
// than the first inducing event. Returns nil when no checkpoint
// predates the sequence (the app must restart fresh).
func PickCheckpoint(store *checkpoint.Store, app string, minimal []controller.Event) *checkpoint.Checkpoint {
	if len(minimal) == 0 {
		return nil
	}
	first := minimal[0].Seq
	if first == 0 {
		return nil
	}
	return store.Before(app, first)
}
