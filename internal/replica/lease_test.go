package replica

import (
	"testing"
	"time"
)

// leaseStep is one call against a LeaseStore on a stepped clock: advance
// the clock, then TryAcquire (takeover == false) or TakeOver at epoch.
type leaseStep struct {
	what       string
	advance    time.Duration
	node       string
	takeover   bool
	epoch      uint64
	wantOK     bool
	wantHolder string
	wantEpoch  uint64
}

func runLeaseSteps(t *testing.T, s *LeaseStore, now *time.Time, ttl time.Duration, steps []leaseStep) {
	t.Helper()
	for _, st := range steps {
		*now = now.Add(st.advance)
		var l Lease
		var ok bool
		if st.takeover {
			l, ok = s.TakeOver(st.node, ttl, st.epoch)
		} else {
			l, ok = s.TryAcquire(st.node, ttl)
		}
		if ok != st.wantOK || l.Holder != st.wantHolder || l.Epoch != st.wantEpoch {
			t.Fatalf("%s: got %+v, %v; want holder %q epoch %d, ok=%v",
				st.what, l, ok, st.wantHolder, st.wantEpoch, st.wantOK)
		}
	}
}

// TestLeaseStoreBasics covers grant, renewal, mutual exclusion, expiry
// takeover and the epoch compare-and-swap.
func TestLeaseStoreBasics(t *testing.T) {
	now := time.Unix(1000, 0)
	ttl := 100 * time.Millisecond
	s := NewLeaseStore(func() time.Time { return now })
	runLeaseSteps(t, s, &now, ttl, []leaseStep{
		{what: "initial acquire", node: "a", wantOK: true, wantHolder: "a", wantEpoch: 1},
		{what: "unexpired lease", node: "b", wantHolder: "a", wantEpoch: 1},
		{what: "renewal keeps the epoch", advance: ttl / 2, node: "a", wantOK: true, wantHolder: "a", wantEpoch: 1},
		{what: "acquire after expiry", advance: ttl + time.Millisecond, node: "b", wantOK: true, wantHolder: "b", wantEpoch: 2},
		{what: "takeover of a stale epoch", node: "a", takeover: true, epoch: 1, wantHolder: "b", wantEpoch: 2},
		{what: "takeover before expiry", node: "a", takeover: true, epoch: 2, wantOK: true, wantHolder: "a", wantEpoch: 3},
		{what: "second takeover of the same epoch", node: "c", takeover: true, epoch: 2, wantHolder: "a", wantEpoch: 3},
		{what: "deposed holder cannot renew", node: "b", wantHolder: "a", wantEpoch: 3},
		{what: "new holder renews", advance: ttl / 2, node: "a", wantOK: true, wantHolder: "a", wantEpoch: 3},
		{what: "takeover of an expired lease", advance: 10 * ttl, node: "b", takeover: true, epoch: 3, wantOK: true, wantHolder: "b", wantEpoch: 4},
	})
}

// TestElectionFlappingFakeClock ping-pongs leadership between two nodes
// on a stepped clock, once by waiting out the lease and once by taking
// over on suspicion: every flap bumps the epoch by one, the holder's
// renewals never do, and neither node ever shares the lease.
func TestElectionFlappingFakeClock(t *testing.T) {
	ttl := 100 * time.Millisecond
	for _, tc := range []struct {
		name     string
		takeover bool
		wait     time.Duration // before the other node moves in
	}{
		{"lease-expiry", false, ttl + time.Millisecond},
		{"takeover-on-suspicion", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			now := time.Unix(2000, 0)
			s := NewLeaseStore(func() time.Time { return now })
			runLeaseSteps(t, s, &now, ttl, []leaseStep{
				{what: "first election", node: "a", wantOK: true, wantHolder: "a", wantEpoch: 1},
			})
			holder, other := "a", "b"
			for epoch := uint64(1); epoch <= 6; epoch++ {
				runLeaseSteps(t, s, &now, ttl, []leaseStep{
					{what: "renewal", advance: ttl / 2, node: holder, wantOK: true, wantHolder: holder, wantEpoch: epoch},
					{what: "other node while held", node: other, wantHolder: holder, wantEpoch: epoch},
					{what: "flap", advance: tc.wait, node: other, takeover: tc.takeover, epoch: epoch,
						wantOK: true, wantHolder: other, wantEpoch: epoch + 1},
					{what: "deposed node renews", node: holder, wantHolder: other, wantEpoch: epoch + 1},
					{what: "deposed node takes over its own epoch", node: holder, takeover: true, epoch: epoch,
						wantHolder: other, wantEpoch: epoch + 1},
				})
				holder, other = other, holder
			}
			// The first election and one per flap.
			runLeaseSteps(t, s, &now, ttl, []leaseStep{
				{what: "final holder", node: holder, wantOK: true, wantHolder: holder, wantEpoch: 7},
			})
		})
	}
}
