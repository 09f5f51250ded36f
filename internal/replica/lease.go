// Package replica is LegoSDN's replicated control plane: N core.Stack
// replicas, one leader, with the leader's durable WAL segments (NetLog
// journal + checkpoint log) shipped to followers over framed replication
// streams. Followers keep warm shadow copies of both logs. When the
// streams from the leader end on too many followers for it to reach a
// quorum, the cluster suspects it and the best-replicated follower takes
// the next lease epoch at once (a compare-and-swap on the epoch it
// suspects), finishes recovery from its replicated journal
// (presumed-abort orphan handling, inverse replay against the
// still-connected switches via master/slave role transfer in netsim),
// and resumes dispatch.
//
// Safety does not come from the lease running out. The successor's role
// change demotes the old master on every switch, which then bounces its
// writes with EPERM, and acks are counted per epoch, so a deposed leader
// can neither change the network nor complete a quorum write. The lease
// TTL is a renewal hint for a leader nobody suspects.
//
// This closes the gap the paper leaves open: LegoSDN removes the
// app↔controller fate-sharing, but the controller itself is a single
// point of failure — the problem replicated-controller designs (Rama,
// SMaRtLight) attack with shared consistent state. The durable WAL is
// the natural replication log: every NetLog transaction record a
// switch's state depends on is journaled *before* the message reaches
// the switch, so a follower that holds the journal prefix can always
// roll the network back to a consistent point.
package replica

import (
	"sync"
	"time"
)

// Lease is the current leadership grant. Epoch increases on every
// change of holder, so a deposed leader's stale epoch is detectable
// (fencing).
type Lease struct {
	Holder  string
	Epoch   uint64
	Expires time.Time
}

// LeaseStore is the election substrate: a single compare-and-swap
// lease, modeling the external coordination service (etcd, ZooKeeper,
// or a quorum register) real deployments use. The holder renews within
// the TTL; anyone else acquires it after expiry, or at once by naming
// the epoch it suspects (TakeOver).
type LeaseStore struct {
	now func() time.Time

	mu  sync.Mutex
	cur Lease
}

// NewLeaseStore builds a store on the given clock (nil = time.Now).
func NewLeaseStore(now func() time.Time) *LeaseStore {
	if now == nil {
		now = time.Now
	}
	return &LeaseStore{now: now}
}

// TryAcquire renews the lease if node already holds it, or grants it
// (bumping the epoch) if the lease is free or expired. Returns the
// resulting lease and whether node now holds it.
func (s *LeaseStore) TryAcquire(node string, ttl time.Duration) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	switch {
	case s.cur.Holder == node:
		s.cur.Expires = now.Add(ttl)
		return s.cur, true
	case s.cur.Holder == "" || now.After(s.cur.Expires):
		s.cur = Lease{Holder: node, Epoch: s.cur.Epoch + 1, Expires: now.Add(ttl)}
		return s.cur, true
	default:
		return s.cur, false
	}
}

// TakeOver grants node the lease at epoch+1 if the lease still stands at
// epoch, expired or not: the caller suspects that epoch's holder, and
// whoever already moved the epoch on wins instead. Returns the resulting
// lease and whether node now holds it.
func (s *LeaseStore) TakeOver(node string, ttl time.Duration, epoch uint64) (Lease, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Epoch != epoch {
		return s.cur, false
	}
	s.cur = Lease{Holder: node, Epoch: epoch + 1, Expires: s.now().Add(ttl)}
	return s.cur, true
}
