package crashpad

import (
	"fmt"

	"legosdn/internal/controller"
	"legosdn/internal/mcs"
)

// Deep recovery implements the §5 extension for failures that span
// multiple transactions: "we plan on extending LegoSDN to read a
// history of snapshots and use techniques like STS to detect the exact
// set of events that induced the crash. STS allows us to determine
// which checkpoint to roll back the application to."
//
// The trigger is a crash storm: when single-event recovery (restore the
// last checkpoint, ignore the offending event) fails to stop an app
// from crashing on consecutive events, the corruption predates the last
// checkpoint. Crash-Pad then minimizes the recorded event history
// against a fresh replica of the app, rolls back to the newest
// checkpoint older than the first inducing event, and replays the
// history with the inducing events excised.

// defaultDeepThreshold is the consecutive-crash count that triggers
// deep recovery.
const defaultDeepThreshold = 3

// defaultHistoryLimit bounds the per-app event history used for
// minimization.
const defaultHistoryLimit = 512

// noteHistory records a delivered event in the app's bounded history.
func (cp *CrashPad) noteHistory(name string, ev controller.Event) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	h := append(cp.histories[name], ev)
	if len(h) > defaultHistoryLimit {
		h = h[len(h)-defaultHistoryLimit:]
	}
	cp.histories[name] = h
}

// history returns a copy of the newest n events of the app's recorded
// history.
func (cp *CrashPad) history(name string, n int) []controller.Event {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	h := cp.histories[name]
	return append([]controller.Event(nil), h[max(0, len(h)-n):]...)
}

// crashStreak bumps and reports the consecutive-crash counter.
func (cp *CrashPad) crashStreak(name string) int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.streaks[name]++
	return cp.streaks[name]
}

// resetStreak clears the counter after a clean event.
func (cp *CrashPad) resetStreak(name string) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	delete(cp.streaks, name)
}

// deepRecover runs the §5 pipeline. It returns nil on success (the app
// is live with the inducing events excised) or an error describing why
// deep recovery was not possible.
func (cp *CrashPad) deepRecover(app controller.App, ctx controller.Context, name string, ticket *Ticket) error {
	if cp.opts.ReplicaFactory == nil {
		return fmt.Errorf("no replica factory configured")
	}
	if probe := cp.opts.ReplicaFactory(name); probe == nil {
		return fmt.Errorf("no replica available for %q", name)
	}
	trace := cp.history(name, defaultHistoryLimit)
	if len(trace) == 0 {
		return fmt.Errorf("no event history recorded")
	}

	// 1. Minimize: which events actually induce the crash?
	fails := mcs.ReplayFails(func() controller.App { return cp.opts.ReplicaFactory(name) }, ctx)
	minimal, stats := mcs.Minimize(trace, fails, 0)
	if len(minimal) == 0 {
		return fmt.Errorf("failure did not reproduce on a fresh replica (non-deterministic?)")
	}
	ticket.Notes = append(ticket.Notes, fmt.Sprintf(
		"deep recovery: minimized %d-event history to %d inducing event(s) in %d probes",
		len(trace), len(minimal), stats.Probes))

	// 2. Roll the app back to before the first inducing event.
	inducing := make(map[uint64]bool, len(minimal))
	for _, ev := range minimal {
		inducing[ev.Seq] = true
	}
	target := mcs.PickCheckpoint(cp.opts.Store, name, minimal)

	// A fresh failure domain, then the chosen image (or a cold start
	// when no checkpoint predates the corruption).
	if r, ok := app.(Restartable); ok {
		if err := r.Respawn(); err != nil {
			return fmt.Errorf("respawn: %w", err)
		}
	}
	snap, canSnap := app.(controller.Snapshotter)
	fromSeq := uint64(0)
	if target != nil && canSnap {
		if err := snap.Restore(target.State); err != nil {
			return fmt.Errorf("restore checkpoint seq=%d: %w", target.Seq, err)
		}
		fromSeq = target.Seq
	} else if !canSnap {
		if _, ok := app.(Restartable); !ok {
			return fmt.Errorf("app can neither snapshot nor restart")
		}
	}

	// 3. Replay the history from the rollback point, excising the
	// inducing events (the correctness compromise §3.3 authorizes).
	replayed, excised := 0, 0
	for _, ev := range trace {
		if ev.Seq < fromSeq {
			continue
		}
		if inducing[ev.Seq] {
			excised++
			continue
		}
		tx := cp.beginAtomic(ev.Trace)
		_, crash := invoke(app, ctx, ev)
		if crash != nil {
			cp.rollbackAtomic(tx)
			return fmt.Errorf("excised replay still crashed on %v", ev)
		}
		cp.commitAtomic(tx)
		replayed++
	}
	ticket.Notes = append(ticket.Notes, fmt.Sprintf(
		"deep recovery: rolled back to checkpoint seq=%d, replayed %d event(s), excised %d",
		fromSeq, replayed, excised))

	// 4. Re-baseline and forget the poisoned history suffix.
	cp.mu.Lock()
	var kept []controller.Event
	for _, ev := range cp.histories[name] {
		if !inducing[ev.Seq] {
			kept = append(kept, ev)
		}
	}
	cp.histories[name] = kept
	delete(cp.streaks, name)
	cp.replays[name] = nil
	cp.mu.Unlock()
	cp.rebaseline(app, name, trace[len(trace)-1].Seq+1)
	cp.DeepRecoveries.Add(1)
	return nil
}
