package apps

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// imageCase builds one registry app's state two ways: populate applies
// the same logical state to a fresh instance in the order perm dictates.
type imageCase struct {
	name     string
	fresh    func() controller.Snapshotter
	populate func(app controller.Snapshotter, perm []int)
	// oldGob is the image the pre-v4 gob encoder wrote for some state.
	oldGob func() any
}

func mac(i int) openflow.EthAddr {
	return openflow.EthAddr{0, 0, byte(i >> 8), byte(i), 0xaa, byte(i * 7)}
}

var imageCases = []imageCase{
	{
		name:  "learning-switch",
		fresh: func() controller.Snapshotter { return NewLearningSwitch() },
		populate: func(app controller.Snapshotter, perm []int) {
			a := app.(*LearningSwitch)
			for _, i := range perm {
				dpid := uint64(i%5 + 1)
				if a.macs[dpid] == nil {
					a.macs[dpid] = make(map[openflow.EthAddr]uint16)
				}
				a.macs[dpid][mac(i)] = uint16(i)
			}
		},
		oldGob: func() any { return map[uint64]map[openflow.EthAddr]uint16{1: {mac(1): 2}} },
	},
	{
		name:  "firewall",
		fresh: func() controller.Snapshotter { return NewFirewall(nil) },
		populate: func(app controller.Snapshotter, perm []int) {
			fw := app.(*Firewall)
			// Rules are an ordered list: evaluation order is state.
			for i := range perm {
				fw.Rules = append(fw.Rules, FirewallRule{NwSrc: uint32(i), NwDst: uint32(i * 3), NwProto: uint8(i), TpDst: uint16(i + 22)})
			}
			fw.blocked.Store(uint64(len(perm)))
		},
		oldGob: func() any {
			return struct {
				Rules   []FirewallRule
				Blocked uint64
			}{[]FirewallRule{{TpDst: 22}}, 3}
		},
	},
	{
		name:  "stats-collector",
		fresh: func() controller.Snapshotter { return NewStatsCollector() },
		populate: func(app controller.Snapshotter, perm []int) {
			sc := app.(*StatsCollector)
			for _, i := range perm {
				sc.TotalPackets += uint64(i)
				sc.TotalBytes += uint64(i) * 1500
				sc.FlowsEnded++
			}
		},
		oldGob: func() any { return StatsCollector{TotalPackets: 1, TotalBytes: 2, FlowsEnded: 3} },
	},
	{
		name:  "spanning-tree",
		fresh: func() controller.Snapshotter { return NewSpanningTree() },
		populate: func(app controller.Snapshotter, perm []int) {
			st := app.(*SpanningTree)
			for _, i := range perm {
				dpid := uint64(i%4 + 1)
				if st.blocked[dpid] == nil {
					st.blocked[dpid] = make(map[uint16]bool)
				}
				st.blocked[dpid][uint16(i)] = true
			}
			st.recomputes = len(perm)
		},
		oldGob: func() any {
			return struct {
				Blocked    map[uint64]map[uint16]bool
				Recomputes int
			}{map[uint64]map[uint16]bool{1: {2: true}}, 4}
		},
	},
	{
		name:  "flowscale",
		fresh: func() controller.Snapshotter { return NewLoadBalancer(map[uint64][]uint16{1: {1, 2}}) },
		populate: func(app controller.Snapshotter, perm []int) {
			lb := app.(*LoadBalancer)
			for _, i := range perm {
				dpid := uint64(i%3 + 1)
				if lb.assigned[dpid] == nil {
					lb.assigned[dpid] = make(map[uint16]uint64)
				}
				lb.assigned[dpid][uint16(i)] = uint64(i) << 33
			}
		},
		oldGob: func() any {
			return struct{ Assigned map[uint64]map[uint16]uint64 }{map[uint64]map[uint16]uint64{1: {2: 3}}}
		},
	},
	{
		name:  "routing",
		fresh: func() controller.Snapshotter { return NewShortestPathRouter() },
		populate: func(app controller.Snapshotter, perm []int) {
			r := app.(*ShortestPathRouter)
			for _, i := range perm {
				r.hostAt[mac(i)] = attachment{DPID: uint64(i) << 40, Port: uint16(i)}
			}
			r.pathsInstalled = len(perm)
		},
		oldGob: func() any {
			return struct {
				HostAt map[openflow.EthAddr]attachment
				Paths  int
			}{map[openflow.EthAddr]attachment{mac(1): {DPID: 1, Port: 2}}, 5}
		},
	},
}

func mustSnapshot(t testing.TB, app controller.Snapshotter) []byte {
	t.Helper()
	b, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Equal state gives equal bytes whatever the insertion order, and
// Restore(Snapshot()) reproduces the state (observed through Snapshot).
// 200 leaves is more than sortedRoom, so the heap path of the key
// buffers is covered too.
func TestImagesDeterministicAndRoundTrip(t *testing.T) {
	for _, c := range imageCases {
		for _, n := range []int{0, 1, 7, 200} {
			rng := rand.New(rand.NewSource(int64(n)))
			a, b := c.fresh(), c.fresh()
			perm := rng.Perm(n)
			c.populate(a, perm)
			if c.name != "firewall" { // its rule order is state, not an accident of insertion
				perm = rng.Perm(n)
			}
			c.populate(b, perm)
			imgA, imgB := mustSnapshot(t, a), mustSnapshot(t, b)
			if !bytes.Equal(imgA, imgB) {
				t.Fatalf("%s n=%d: images of equal state differ", c.name, n)
			}
			if again := mustSnapshot(t, a); !bytes.Equal(imgA, again) {
				t.Fatalf("%s n=%d: two snapshots of one instance differ", c.name, n)
			}
			back := c.fresh()
			c.populate(back, rng.Perm(3)) // Restore must replace, not merge
			if err := back.Restore(imgA); err != nil {
				t.Fatalf("%s n=%d: restore: %v", c.name, n, err)
			}
			if got := mustSnapshot(t, back); !bytes.Equal(got, imgA) {
				t.Fatalf("%s n=%d: state changed across Restore(Snapshot())", c.name, n)
			}
		}
	}
}

func TestSnapshotAllocatesOnlyTheImage(t *testing.T) {
	for _, c := range imageCases {
		app := c.fresh()
		c.populate(app, rand.New(rand.NewSource(1)).Perm(48))
		if allocs := testing.AllocsPerRun(50, func() { _, _ = app.Snapshot() }); allocs != 1 {
			t.Errorf("%s: Snapshot allocates %v times, want 1", c.name, allocs)
		}
	}
}

// The stated format break: an image written by the gob encoders this
// package used before wire v4 is refused with an error and leaves the
// app as it was; so is another app's image, a truncated one and one with
// trailing bytes.
func TestRestoreRefusesForeignImages(t *testing.T) {
	for i, c := range imageCases {
		app := c.fresh()
		c.populate(app, []int{1, 2, 3})
		before := mustSnapshot(t, app)
		var old bytes.Buffer
		if err := gob.NewEncoder(&old).Encode(c.oldGob()); err != nil {
			t.Fatal(err)
		}
		other := imageCases[(i+1)%len(imageCases)].fresh()
		bad := map[string][]byte{
			"gob":       old.Bytes(),
			"other app": mustSnapshot(t, other),
			"truncated": before[:len(before)-1],
			"trailing":  append(append([]byte(nil), before...), 0),
			"empty":     nil,
		}
		for what, img := range bad {
			if err := app.Restore(img); err == nil {
				t.Errorf("%s: %s image accepted", c.name, what)
			}
			if after := mustSnapshot(t, app); !bytes.Equal(before, after) {
				t.Fatalf("%s: refused %s image still changed the app", c.name, what)
			}
		}
	}
}

// Arbitrary bytes never panic a Restore, and what a Restore builds is
// bounded by the input: the image it then writes is no longer.
func FuzzRestore(f *testing.F) {
	for i, c := range imageCases {
		app := c.fresh()
		c.populate(app, []int{3, 1, 2})
		f.Add(uint8(i), mustSnapshot(f, app))
		f.Add(uint8(i), []byte{})
	}
	f.Fuzz(func(t *testing.T, which uint8, state []byte) {
		app := imageCases[int(which)%len(imageCases)].fresh()
		if err := app.Restore(state); err != nil {
			return
		}
		if out := mustSnapshot(t, app); len(out) > len(state) {
			t.Fatalf("restored state re-encodes to %d bytes from %d", len(out), len(state))
		}
	})
}
