package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, base, target []byte) []byte {
	t.Helper()
	delta := EncodeDelta(base, target)
	got, err := ApplyDelta(base, delta)
	if err != nil {
		t.Fatalf("apply(encode(%d bytes -> %d bytes)): %v", len(base), len(target), err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return delta
}

func TestDeltaRoundTripEdgeCases(t *testing.T) {
	big := bytes.Repeat([]byte("abcdefgh"), 512)
	cases := []struct {
		name         string
		base, target []byte
	}{
		{"both empty", nil, nil},
		{"empty base", nil, []byte("fresh state")},
		{"empty target", []byte("old state"), nil},
		{"identical", big, big},
		{"grown", big, append(append([]byte(nil), big...), []byte("tail growth")...)},
		{"shrunk", big, big[:100]},
		{"single byte changed", big, func() []byte {
			b := append([]byte(nil), big...)
			b[2048] ^= 0xFF
			return b
		}()},
		{"disjoint", []byte("completely different"), []byte("no shared content at all")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip(t, tc.base, tc.target)
		})
	}
	// The whole point: a small in-place mutation must encode much
	// smaller than the full image.
	mutated := append([]byte(nil), big...)
	mutated[17] = 'X'
	mutated[3000] = 'Y'
	if delta := roundTrip(t, big, mutated); len(delta) > len(mutated)/10 {
		t.Fatalf("delta of a 2-byte mutation is %d bytes for a %d-byte state", len(delta), len(mutated))
	}
	// Identical states collapse to a near-empty patch.
	if delta := roundTrip(t, big, big); len(delta) > 32 {
		t.Fatalf("identical-state delta is %d bytes", len(delta))
	}
}

// Property: apply(base, encode(base, target)) == target for random
// pairs, including mutated/grown/shrunk variants of the base.
func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(base []byte, mutations []uint16, grow []byte, shrink uint8) bool {
		target := append([]byte(nil), base...)
		for _, m := range mutations {
			if len(target) > 0 {
				target[int(m)%len(target)] ^= byte(m >> 8)
			}
		}
		if int(shrink) < len(target) {
			target = target[int(shrink):]
		}
		target = append(target, grow...)
		got, err := ApplyDelta(base, EncodeDelta(base, target))
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Encoding is deterministic: same inputs, same bytes — the durable
// log's replay reconstruction depends on it.
func TestDeltaDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([]byte, 4096)
	rng.Read(base)
	target := append([]byte(nil), base...)
	for i := 0; i < 40; i++ {
		target[rng.Intn(len(target))] ^= byte(1 + rng.Intn(255))
	}
	if !bytes.Equal(EncodeDelta(base, target), EncodeDelta(base, target)) {
		t.Fatal("same (base, target) produced different deltas")
	}
}

// ApplyDelta must reject damage with an error, never panic or return
// an out-of-spec length.
func TestApplyDeltaRejectsMalformed(t *testing.T) {
	base := []byte("some base state bytes for copy ops")
	cases := map[string][]byte{
		"empty":               nil,
		"short header":        {0, 0, 1},
		"truncated copy op":   append(EncodeDelta(base, base)[:4], opCopy, 0, 0),
		"copy outside base":   {0, 0, 0, 4, opCopy, 0, 0, 1, 0, 0, 0, 0, 200},
		"literal overrun":     {0, 0, 0, 9, opLit, 0, 0, 0, 9, 'x'},
		"unknown op":          {0, 0, 0, 1, 0xEE},
		"declared too long":   {0, 0, 0, 99, opLit, 0, 0, 0, 1, 'x'},
		"output past declare": {0, 0, 0, 1, opLit, 0, 0, 0, 2, 'x', 'y'},
	}
	for name, delta := range cases {
		if _, err := ApplyDelta(base, delta); err == nil {
			t.Fatalf("%s: malformed delta accepted", name)
		}
	}
}

// FuzzDeltaCodec drives both directions: arbitrary (base, target)
// pairs must round-trip, and arbitrary delta bytes applied to an
// arbitrary base must either error or produce exactly the declared
// length — never panic.
func FuzzDeltaCodec(f *testing.F) {
	f.Add([]byte("base"), []byte("target"))
	f.Add([]byte(nil), []byte("grown from nothing"))
	f.Add(bytes.Repeat([]byte{7}, 300), bytes.Repeat([]byte{7}, 299))
	f.Add([]byte("x"), EncodeDelta([]byte("x"), []byte("y")))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		got, err := ApplyDelta(a, EncodeDelta(a, b))
		if err != nil {
			t.Fatalf("round trip errored: %v", err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("round trip mismatch: %d bytes vs %d", len(got), len(b))
		}
		// b as a raw delta against a: must not panic, and any success
		// must honor the declared output length.
		if out, err := ApplyDelta(a, b); err == nil && len(b) >= 4 {
			declared := int(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
			if len(out) != declared {
				t.Fatalf("accepted delta produced %d bytes, declared %d", len(out), declared)
			}
		}
	})
}

func TestStoreDeltaMode(t *testing.T) {
	s := NewStore(0)
	s.SetDeltaEvery(4)
	sink := &recordingSink{}
	s.SetSink(sink)

	state := bytes.Repeat([]byte("flowtable-entry."), 256) // 4 KiB
	var want [][]byte
	for i := 0; i < 10; i++ {
		st := append([]byte(nil), state...)
		st[i*16] = byte('A' + i) // small in-place mutation per event
		st = append(st, []byte(fmt.Sprintf("entry-%d", i))...)
		state = st
		want = append(want, st)
		s.Put("app", uint64(i+1), st)
	}

	// Accessors reconstruct transparently: full images, never deltas.
	for i, w := range want {
		cp := s.Before("app", uint64(i+1))
		if cp == nil || cp.Delta || !bytes.Equal(cp.State, w) {
			t.Fatalf("Before(%d): delta=%v, state mismatch", i+1, cp != nil && cp.Delta)
		}
	}
	if cp := s.Latest("app"); !bytes.Equal(cp.State, want[9]) {
		t.Fatal("Latest reconstruction mismatch")
	}
	h := s.History("app")
	if len(h) != 10 {
		t.Fatalf("history length %d", len(h))
	}
	for i, cp := range h {
		if cp.Delta || !bytes.Equal(cp.State, want[i]) {
			t.Fatalf("History[%d] not a reconstructed full image", i)
		}
	}

	// Cadence: puts 1,5,9 are full (every 4th), the rest deltas.
	if s.DeltaSaves != 7 {
		t.Fatalf("delta saves = %d, want 7", s.DeltaSaves)
	}
	for i, cp := range sink.got {
		wantDelta := i%4 != 0
		if cp.Delta != wantDelta {
			t.Fatalf("sink record %d: delta=%v, want %v", i, cp.Delta, wantDelta)
		}
		if wantDelta && cp.BaseSeq != uint64(i) {
			t.Fatalf("sink record %d: base seq %d, want %d", i, cp.BaseSeq, i)
		}
	}
	// Stored bytes must be far below 10 full images: 3 fulls + 7 small
	// deltas lands just over 3 images, nowhere near 10.
	if s.Bytes > uint64(4*len(want[9])) {
		t.Fatalf("delta mode stored %d bytes for 10 puts of ~%d", s.Bytes, len(want[9]))
	}
}

// Trimming the bounded history must rebase the new oldest entry to a
// full image — its delta base is about to be evicted.
func TestStoreDeltaTrimRebases(t *testing.T) {
	s := NewStore(3)
	s.SetDeltaEvery(8) // every trimmed-in entry is mid-chain
	var want [][]byte
	state := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < 10; i++ {
		st := append([]byte(nil), state...)
		st[i*7] = byte(i)
		state = st
		want = append(want, st)
		s.Put("a", uint64(i+1), st)
	}
	h := s.History("a")
	if len(h) != 3 {
		t.Fatalf("history %d, want 3", len(h))
	}
	for i, cp := range h {
		if !bytes.Equal(cp.State, want[7+i]) {
			t.Fatalf("trimmed history entry %d reconstructs wrong state (seq %d)", i, cp.Seq)
		}
	}
}

func TestStoreDeltaPerAppIndependence(t *testing.T) {
	s := NewStore(0)
	s.SetDeltaEvery(3)
	sink := &recordingSink{}
	s.SetSink(sink)
	s.Put("a", 1, []byte("aaaa-state-one-is-long-enough"))
	s.Put("b", 1, []byte("bbbb-state-one-is-long-enough"))
	s.Put("a", 2, []byte("aaaa-state-two-is-long-enough"))
	s.Put("b", 2, []byte("bbbb-state-two-is-long-enough"))
	if sink.got[0].Delta || sink.got[1].Delta {
		t.Fatal("first put per app must be full")
	}
	if !sink.got[2].Delta || !sink.got[3].Delta {
		t.Fatal("second put per app must be a delta")
	}
	if got := s.Latest("a"); string(got.State) != "aaaa-state-two-is-long-enough" {
		t.Fatalf("app a latest = %q", got.State)
	}
}
