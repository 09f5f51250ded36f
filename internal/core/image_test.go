package core

import (
	"bytes"
	"encoding/gob"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/appvisor"
	"legosdn/internal/controller"
	"legosdn/internal/durable"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// preImageApp is a learning switch that records, at the start of every
// HandleEvent, its own image under the event's sequence number — what a
// checkpoint with that number must hold (PAPER.md §3.3) — counts the
// snapshots taken of it, and panics on packets to the poisoned port.
// The recorder is shared by the instances respawns create.
type preImageApp struct {
	*apps.LearningSwitch
	poison uint16
	rec    *preImages
}

type preImages struct {
	mu        sync.Mutex
	bySeq     map[uint64][]byte
	snapshots atomic.Int64
}

func (r *preImages) factory(poison uint16) func() controller.App {
	return func() controller.App {
		return &preImageApp{LearningSwitch: apps.NewLearningSwitch(), poison: poison, rec: r}
	}
}

func (a *preImageApp) Snapshot() ([]byte, error) {
	a.rec.snapshots.Add(1)
	return a.LearningSwitch.Snapshot()
}

func (a *preImageApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	img, _ := a.LearningSwitch.Snapshot()
	a.rec.mu.Lock()
	a.rec.bySeq[ev.Seq] = img
	a.rec.mu.Unlock()
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		if f, err := netsim.ParseFrame(pin.Data); err == nil && f.TpDst == a.poison {
			panic("preImageApp: packet to poisoned port")
		}
	}
	return a.LearningSwitch.HandleEvent(ctx, ev)
}

// driveEvents injects n PacketIns between the hosts of a 4-host switch,
// every poisonEvery-th one to the poisoned port, and waits for them.
func driveEvents(t *testing.T, stack *Stack, net *netsim.Network, n, poisonEvery int, poison uint16) {
	t.Helper()
	target := stack.Controller.Processed.Load() + uint64(n)
	for i := 0; i < n; i++ {
		src, dst := net.Host([]string{"h1", "h2", "h3", "h4"}[i%4]), net.Host([]string{"h2", "h3", "h4", "h1"}[(i/2)%4])
		port := uint16(80)
		if poisonEvery > 0 && i%poisonEvery == poisonEvery-1 {
			port = poison
		}
		if err := stack.Controller.Inject(controller.Event{Kind: controller.EventPacketIn, DPID: 1,
			Message: &openflow.PacketIn{BufferID: openflow.BufferIDNone, InPort: uint16(100 + i%4),
				Data: netsim.TCPFrame(src, dst, 1000, port, nil).Marshal()}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "events processed", func() bool { return stack.Controller.Processed.Load() >= target })
}

// With the image riding the reply, the checkpoint log still holds what
// it held before: every checkpoint is the app's state right before the
// event it is numbered after — across reported crashes, lost datagrams
// (a timeout), recoveries' restore/replay/rebaseline, at cadence 1 and 3.
func TestCheckpointsAreStateBeforeEvent(t *testing.T) {
	for _, every := range []int{1, 3} {
		rec := &preImages{bySeq: make(map[uint64][]byte)}
		stack := NewStack(Config{Mode: ModeLegoSDN, CheckpointEvery: every, CheckpointDelta: 4,
			EventTimeout: 200 * time.Millisecond})
		if err := stack.AddApp(rec.factory(6666)); err != nil {
			t.Fatal(err)
		}
		net := netsim.Single(4, nil)
		if err := stack.ConnectNetwork(net); err != nil {
			t.Fatal(err)
		}
		driveEvents(t, stack, net, 24, 7, 6666)
		// One event datagram lost on the wire: the proxy times out and
		// Crash-Pad recovers the app.
		var dropped atomic.Bool
		stack.Proxy("learning-switch").SetWireFault(func(string, string, uint8) appvisor.WireVerdict {
			if dropped.CompareAndSwap(false, true) {
				return appvisor.WireVerdict{Action: appvisor.WireDrop}
			}
			return appvisor.WireVerdict{}
		})
		driveEvents(t, stack, net, 12, 0, 0)
		if got := stack.CrashPad.Recoveries.Load(); got != 4 {
			t.Fatalf("every=%d: %d recoveries, want 4 (3 poisoned events, 1 lost datagram)", every, got)
		}

		history := stack.Store.History("learning-switch")
		stack.Close()
		rec.mu.Lock()
		checked := 0
		for _, cp := range history {
			want, ok := rec.bySeq[cp.Seq]
			if !ok {
				continue // a rebaseline numbered after an event that never came
			}
			checked++
			if !bytes.Equal(cp.State, want) {
				t.Errorf("every=%d: checkpoint %d holds %x, the app entered that event with %x", every, cp.Seq, cp.State, want)
			}
		}
		rec.mu.Unlock()
		if min := 36/every - 2; checked < min {
			t.Fatalf("every=%d: only %d of %d checkpoints could be checked, want at least %d", every, checked, len(history), min)
		}
	}
}

// An ignored crash costs one state round trip, the restore: the
// rebaseline and the next event's checkpoint both take the restored
// image, which the proxy holds.
func TestIgnoredCrashMakesOneStateRPC(t *testing.T) {
	rec := &preImages{bySeq: make(map[uint64][]byte)}
	stack := NewStack(Config{Mode: ModeLegoSDN})
	defer stack.Close()
	if err := stack.AddApp(rec.factory(6666)); err != nil {
		t.Fatal(err)
	}
	var sends atomic.Int64 // event datagrams: one RPC each
	stack.Proxy("learning-switch").SetWireFault(func(string, string, uint8) appvisor.WireVerdict {
		sends.Add(1)
		return appvisor.WireVerdict{}
	})
	net := netsim.Single(4, nil)
	if err := stack.ConnectNetwork(net); err != nil {
		t.Fatal(err)
	}
	stateRPCs := func() int64 {
		rpcs := stack.Metrics.Snapshot().Histograms[`legosdn_appvisor_rpc_seconds{app="learning-switch"}`].Count
		return int64(rpcs) - sends.Load()
	}
	driveEvents(t, stack, net, 8, 0, 0)
	before := stateRPCs()
	driveEvents(t, stack, net, 2, 2, 6666) // the second one crashes the app
	driveEvents(t, stack, net, 1, 0, 0)
	if got := stack.CrashPad.IgnoredEvents.Load(); got != 1 {
		t.Fatalf("%d ignored events, want 1", got)
	}
	if got := stateRPCs() - before; got != 1 {
		t.Fatalf("%d state round trips for one ignored crash, want 1 (the restore)", got)
	}
}

// ModeIsolated runs none of the checkpoint work: no event asks for an
// image and nothing snapshots the app. The same probe on full LegoSDN,
// which checkpoints before every event, sees every event ask.
func TestIsolatedModeNeverAsksForImage(t *testing.T) {
	sent := make(map[Mode]uint8) // the one datagram type each mode's events went out as
	for _, mode := range []Mode{ModeIsolated, ModeLegoSDN} {
		rec := &preImages{bySeq: make(map[uint64][]byte)}
		stack := NewStack(Config{Mode: mode})
		if err := stack.AddApp(rec.factory(0)); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		kinds := make(map[uint8]int)
		stack.Proxy("learning-switch").SetWireFault(func(_, _ string, dgType uint8) appvisor.WireVerdict {
			mu.Lock()
			kinds[dgType]++
			mu.Unlock()
			return appvisor.WireVerdict{}
		})
		net := netsim.Single(4, nil)
		if err := stack.ConnectNetwork(net); err != nil {
			t.Fatal(err)
		}
		driveEvents(t, stack, net, 20, 0, 0)
		stack.Close()
		mu.Lock()
		if snaps := rec.snapshots.Load(); len(kinds) != 1 || (snaps != 0) != (mode == ModeLegoSDN) {
			t.Errorf("%v: event datagram types %v, %d snapshots of the app", mode, kinds, snaps)
		}
		for k := range kinds {
			sent[mode] = k
		}
		mu.Unlock()
	}
	if sent[ModeIsolated] == sent[ModeLegoSDN] {
		t.Errorf("isolated events went out as type %d, the one that asks for the image", sent[ModeIsolated])
	}
}

// The stated image-format break: a state directory written before the
// registry apps left encoding/gob still opens, the app refuses the old
// image and starts empty, and its next checkpoints are journaled as
// usual.
func TestOldGobImageStartsAppEmpty(t *testing.T) {
	dir := t.TempDir()
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(map[uint64]map[openflow.EthAddr]uint16{1: {{1, 2, 3, 4, 5, 6}: 7}}); err != nil {
		t.Fatal(err)
	}
	st, err := durable.OpenState(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Store().Put("learning-switch", 41, old.Bytes())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = durable.OpenState(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if cp := st.Store().Latest("learning-switch"); cp == nil || !bytes.Equal(cp.State, old.Bytes()) {
		t.Fatal("old state directory lost its checkpoint on reopen")
	}
	stack := NewStack(Config{Mode: ModeLegoSDN, Durable: st})
	defer stack.Close()
	if err := stack.AddApp(func() controller.App { return apps.NewLearningSwitch() }); err != nil {
		t.Fatal(err)
	}
	empty, _ := apps.NewLearningSwitch().Snapshot()
	got, err := stack.Proxy("learning-switch").Snapshot()
	if err != nil || !bytes.Equal(got, empty) {
		t.Fatalf("app after refusing the gob image: %x, %v; want the empty image %x", got, err, empty)
	}
	if err := stack.Snapshot("learning-switch"); err != nil {
		t.Fatal(err)
	}
	if cp := st.Store().Latest("learning-switch"); !bytes.Equal(cp.State, empty) {
		t.Fatalf("latest checkpoint %x", cp.State)
	}
}
