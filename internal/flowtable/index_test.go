package flowtable

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"legosdn/internal/openflow"
)

// LookupLinear is the pre-index reference implementation: walk every
// entry, keep the highest priority, break ties on the precomputed
// match key. The differential tests assert the index returns the very
// same entry and BenchmarkLookup measures the index against it. Does
// not touch counters.
func (t *Table) LookupLinear(p openflow.PacketFields) *Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var best *Entry
	for _, e := range t.entries {
		if !e.Match.Matches(p) {
			continue
		}
		if best == nil || e.Priority > best.Priority ||
			(e.Priority == best.Priority && e.tieKey < best.tieKey) {
			best = e
		}
	}
	return best
}

// Generators use small field domains so random tables and packets
// collide often: exact hits, wildcard hits, priority ties, and misses
// all occur within a few dozen draws.

func randPacketSmall(r *rand.Rand) openflow.PacketFields {
	return openflow.PacketFields{
		InPort:  uint16(r.Intn(4)),
		DlSrc:   openflow.EthAddr{0, 0, 0, 0, 0, byte(r.Intn(4))},
		DlDst:   openflow.EthAddr{0, 0, 0, 0, 0, byte(r.Intn(4))},
		DlType:  0x0800,
		NwProto: uint8(r.Intn(2)*11 + 6), // 6 or 17
		NwSrc:   0x0a000000 | uint32(r.Intn(4)),
		NwDst:   0x0a000100 | uint32(r.Intn(4)),
		TpSrc:   uint16(r.Intn(3)),
		TpDst:   uint16(r.Intn(3)),
	}
}

// exactMatchFor builds a match that constrains all twelve fields to the
// packet's values: the entry lands in the exact-match index.
func exactMatchFor(p openflow.PacketFields) openflow.Match {
	return openflow.Match{
		InPort: p.InPort,
		DlSrc:  p.DlSrc, DlDst: p.DlDst,
		DlVlan: p.DlVlan, DlVlanPcp: p.DlVlanPcp,
		DlType: p.DlType, NwTos: p.NwTos, NwProto: p.NwProto,
		NwSrc: p.NwSrc, NwDst: p.NwDst,
		TpSrc: p.TpSrc, TpDst: p.TpDst,
	}
}

// randWildMatch leaves a random subset of fields wildcarded, so the
// entry lands in the priority buckets.
func randWildMatch(r *rand.Rand) openflow.Match {
	m := openflow.MatchAll()
	if r.Intn(2) == 0 {
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = uint16(r.Intn(4))
	}
	if r.Intn(2) == 0 {
		m.Wildcards &^= openflow.WildcardTpDst
		m.TpDst = uint16(r.Intn(3))
	}
	if r.Intn(3) == 0 {
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = 0x0800
		m.SetNwSrcMaskBits(uint(8 * (1 + r.Intn(3))))
		m.NwSrc = 0x0a000000 | uint32(r.Intn(4))
	}
	return m
}

func randTable(r *rand.Rand, n int) *Table {
	ft := New(nil)
	for i := 0; i < n; i++ {
		var m openflow.Match
		if r.Intn(2) == 0 {
			m = exactMatchFor(randPacketSmall(r))
		} else {
			m = randWildMatch(r)
		}
		ft.Apply(addMod(m, uint16(r.Intn(6)), &openflow.ActionOutput{Port: uint16(i)}))
	}
	return ft
}

// TestIndexedLookupMatchesLinear is the differential property test: on
// randomized tables — including after random deletes that exercise
// index maintenance — the indexed Lookup must return the exact same
// entry (pointer-identical) as the retained linear-scan reference, for
// every packet. This is the proof that the index preserves priority
// order and tie-break determinism byte for byte.
func TestIndexedLookupMatchesLinear(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		ft := randTable(r, 3+r.Intn(40))

		// Random non-strict deletes stress remove/rebucket paths.
		for i := 0; i < r.Intn(3); i++ {
			ft.Apply(&openflow.FlowMod{
				Match: randWildMatch(r), Command: openflow.FlowModDelete,
				OutPort: openflow.PortNone, BufferID: openflow.BufferIDNone,
			})
		}

		for i := 0; i < 50; i++ {
			p := randPacketSmall(r)
			want := ft.LookupLinear(p)
			got := ft.Lookup(p, 1)
			if got != want {
				t.Fatalf("seed %d packet %+v: indexed %v, linear reference %v",
					seed, p, got, want)
			}
		}
	}
}

// TestIndexMaintenanceAcrossExpiry checks the index stays consistent
// with the entries map when timeouts evict entries.
func TestIndexMaintenanceAcrossExpiry(t *testing.T) {
	clk := NewFakeClock(time.Unix(1000, 0))
	ft := New(clk)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 30; i++ {
		fm := addMod(exactMatchFor(randPacketSmall(r)), uint16(r.Intn(4)))
		if i%2 == 0 {
			fm.HardTimeout = uint16(1 + r.Intn(5))
		}
		ft.Apply(fm)
	}
	for step := 0; step < 8; step++ {
		clk.Advance(time.Second)
		ft.Expire()
		for i := 0; i < 20; i++ {
			p := randPacketSmall(r)
			if got, want := ft.Lookup(p, 1), ft.LookupLinear(p); got != want {
				t.Fatalf("step %d: indexed %v, linear %v", step, got, want)
			}
		}
	}
}

// TestConcurrentLookupRace hammers Lookup from many goroutines while a
// writer churns the table with adds, deletes, and expiry. Run under
// -race this is the regression test for the stats mutation that used to
// write plain fields inside Lookup.
func TestConcurrentLookupRace(t *testing.T) {
	ft := New(nil)
	seedRand := rand.New(rand.NewSource(9))
	for i := 0; i < 64; i++ {
		ft.Apply(addMod(exactMatchFor(randPacketSmall(seedRand)), uint16(seedRand.Intn(6))))
		ft.Apply(addMod(randWildMatch(seedRand), uint16(seedRand.Intn(6))))
	}

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := randPacketSmall(r)
				if e := ft.Lookup(p, 64); e != nil {
					// The two counters are separate atomics, so no
					// cross-field invariant holds at read time; the
					// point is that -race sees only atomic access.
					e.Counters()
					e.LastMatchedAt()
				}
				ft.Peek(p)
			}
		}(int64(g))
	}

	// Writer: churn rules and expiry under the same packet domain.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			switch i % 4 {
			case 0, 1:
				ft.Apply(addMod(exactMatchFor(randPacketSmall(r)), uint16(r.Intn(6))))
			case 2:
				ft.Apply(&openflow.FlowMod{
					Match: randWildMatch(r), Command: openflow.FlowModDelete,
					OutPort: openflow.PortNone, BufferID: openflow.BufferIDNone,
				})
			case 3:
				ft.Expire()
				ft.Entries()
			}
		}
		close(stop)
	}()
	wg.Wait()
}

// TestLookupZeroAllocs proves the hot path allocates nothing, on both
// the exact-hit and the wildcard-hit path, and on a miss.
func TestLookupZeroAllocs(t *testing.T) {
	ft := New(nil)
	r := rand.New(rand.NewSource(3))
	hit := randPacketSmall(r)
	ft.Apply(addMod(exactMatchFor(hit), 10))
	wildHit := openflow.PacketFields{InPort: 3, TpDst: 9, DlType: 0x86dd}
	wm := openflow.MatchAll()
	wm.Wildcards &^= openflow.WildcardInPort
	wm.InPort = 3
	ft.Apply(addMod(wm, 5))
	for i := 0; i < 200; i++ {
		ft.Apply(addMod(exactMatchFor(randPacketSmall(r)), uint16(r.Intn(6))))
	}
	miss := openflow.PacketFields{InPort: 1000}

	var sink *Entry
	cases := []struct {
		name string
		p    openflow.PacketFields
	}{{"exact-hit", hit}, {"wild-hit", wildHit}, {"miss", miss}}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, func() { sink = ft.Lookup(tc.p, 64) }); n != 0 {
			t.Errorf("%s: %v allocs per Lookup, want 0", tc.name, n)
		}
	}
	_ = sink
}
