package crashpad

import (
	"strings"
	"testing"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// corruptibleApp models the §5 multi-event failure: a poison event
// (in-port 66) silently corrupts state, and every LATER event crashes.
// Because the corruption is part of the snapshotted state, restoring
// the last checkpoint restores the corruption too — single-event
// recovery cannot fix it, only rolling back past the poison can.
type corruptibleApp struct {
	corrupt bool
	handled int
}

func (a *corruptibleApp) Name() string                          { return "corruptible" }
func (a *corruptibleApp) Subscriptions() []controller.EventKind { return controller.AllEventKinds() }
func (a *corruptibleApp) HandleEvent(_ controller.Context, ev controller.Event) error {
	if a.corrupt {
		panic("corruptibleApp: state corrupted by an earlier event")
	}
	if pin, ok := ev.Message.(*openflow.PacketIn); ok && pin.InPort == 66 {
		a.corrupt = true // the silent poison: no crash yet
		return nil
	}
	a.handled++
	return nil
}
func (a *corruptibleApp) Snapshot() ([]byte, error) {
	b := []byte{0, byte(a.handled)}
	if a.corrupt {
		b[0] = 1
	}
	return b, nil
}
func (a *corruptibleApp) Restore(state []byte) error {
	a.corrupt = state[0] == 1
	a.handled = int(state[1])
	return nil
}

func TestDeepRecoveryExcisesInducingEvent(t *testing.T) {
	app := &corruptibleApp{}
	cp := New(Options{
		CheckpointEvery: 1,
		ReplicaFactory: func(string) controller.App {
			return &corruptibleApp{}
		},
		DeepRecoveryThreshold: 3,
	})
	ctx := &recCtx{}

	// Healthy events 1-2.
	for seq := uint64(1); seq <= 2; seq++ {
		if f := cp.RunEvent(app, ctx, pktIn(seq, 1)); f != nil {
			t.Fatal(f)
		}
	}
	// Event 3 is the silent poison: processes "fine".
	if f := cp.RunEvent(app, ctx, pktIn(3, 66)); f != nil {
		t.Fatal(f)
	}
	// Events 4-5 crash; single-event recovery restores the corrupt
	// checkpoint each time, so the streak builds.
	for seq := uint64(4); seq <= 5; seq++ {
		if f := cp.RunEvent(app, ctx, pktIn(seq, 1)); f != nil {
			t.Fatalf("event %d: %v", seq, f)
		}
	}
	if cp.DeepRecoveries.Load() != 0 {
		t.Fatal("deep recovery fired too early")
	}
	// Event 6 hits the threshold: deep recovery minimizes the history,
	// identifies the poison+victim pair, rolls back past the poison and
	// replays without it.
	if f := cp.RunEvent(app, ctx, pktIn(6, 1)); f != nil {
		t.Fatalf("deep recovery failed: %v", f)
	}
	if cp.DeepRecoveries.Load() != 1 {
		t.Fatalf("deep recoveries = %d", cp.DeepRecoveries.Load())
	}
	if app.corrupt {
		t.Fatal("app still corrupt after deep recovery")
	}

	// Life goes on: the next event processes cleanly, no crash.
	crashesBefore := cp.CrashesSeen.Load()
	if f := cp.RunEvent(app, ctx, pktIn(7, 1)); f != nil {
		t.Fatal(f)
	}
	if cp.CrashesSeen.Load() != crashesBefore {
		t.Fatal("app crashed again after deep recovery")
	}

	// The ticket narrates the pipeline.
	tickets := cp.Tickets()
	last := tickets[len(tickets)-1]
	found := false
	for _, n := range last.Notes {
		if strings.Contains(n, "deep recovery: minimized") {
			found = true
		}
	}
	if !found {
		t.Fatalf("ticket missing deep-recovery notes: %+v", last.Notes)
	}
}

// chattyApp is a corruptibleApp that installs one flow per event it
// is handed, tagged with its instance id in the cookie.
type chattyApp struct {
	corruptibleApp
	id uint64
}

func (a *chattyApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	_ = ctx.SendFlowMod(1, &openflow.FlowMod{Cookie: a.id})
	return a.corruptibleApp.HandleEvent(ctx, ev)
}

// Minimization probes run throwaway replicas against the dispatch
// context; only the live app's excised replay may reach the switches.
func TestDeepRecoveryProbesStayOffTheNetwork(t *testing.T) {
	app := &chattyApp{}
	replicas := uint64(0)
	cp := New(Options{
		CheckpointEvery: 1,
		ReplicaFactory: func(string) controller.App {
			replicas++
			return &chattyApp{id: replicas}
		},
		DeepRecoveryThreshold: 3,
	})
	ctx := &recCtx{}
	for seq := uint64(1); seq <= 6; seq++ {
		port := uint16(1)
		if seq == 3 {
			port = 66 // the silent poison
		}
		if f := cp.RunEvent(app, ctx, pktIn(seq, port)); f != nil {
			t.Fatalf("event %d: %v", seq, f)
		}
	}
	if cp.DeepRecoveries.Load() != 1 || replicas < 2 {
		t.Fatalf("deep recoveries = %d over %d replicas", cp.DeepRecoveries.Load(), replicas)
	}
	live, probe := 0, 0
	for _, m := range ctx.sent {
		if fm, ok := m.(*openflow.FlowMod); ok {
			if fm.Cookie == 0 {
				live++
			} else {
				probe++
			}
		}
	}
	if probe != 0 {
		t.Fatalf("%d of %d FlowMods reaching the network came from minimization probes", probe, live+probe)
	}
}

func TestDeepRecoveryUnavailableWithoutFactory(t *testing.T) {
	app := &corruptibleApp{}
	cp := New(Options{CheckpointEvery: 1, DeepRecoveryThreshold: 2})
	ctx := &recCtx{}
	cp.RunEvent(app, ctx, pktIn(1, 66)) // poison
	// Crashes keep being "recovered" shallowly (corrupt state restored
	// each time); deep recovery never fires without a factory.
	for seq := uint64(2); seq <= 6; seq++ {
		cp.RunEvent(app, ctx, pktIn(seq, 1))
	}
	if cp.DeepRecoveries.Load() != 0 {
		t.Fatal("deep recovery fired without a replica factory")
	}
	if !app.corrupt {
		t.Fatal("scenario broken: app should remain corrupt")
	}
	// Tickets note the unavailability once the threshold passes.
	var noted bool
	for _, tk := range cp.Tickets() {
		for _, n := range tk.Notes {
			if strings.Contains(n, "deep recovery unavailable") {
				noted = true
			}
		}
	}
	if !noted {
		t.Fatal("tickets never noted deep-recovery unavailability")
	}
}

func TestDeepRecoveryNonReproducibleFallsBack(t *testing.T) {
	// The replica never crashes (pretend the bug is non-deterministic):
	// minimization fails, shallow recovery continues.
	app := &corruptibleApp{}
	cp := New(Options{
		CheckpointEvery:       1,
		DeepRecoveryThreshold: 2,
		ReplicaFactory: func(string) controller.App {
			return &funcOnlyApp{} // healthy replica: failure won't reproduce
		},
	})
	ctx := &recCtx{}
	cp.RunEvent(app, ctx, pktIn(1, 66))
	for seq := uint64(2); seq <= 5; seq++ {
		if f := cp.RunEvent(app, ctx, pktIn(seq, 1)); f != nil {
			t.Fatalf("shallow recovery should still work: %v", f)
		}
	}
	if cp.DeepRecoveries.Load() != 0 {
		t.Fatal("deep recovery should not succeed with a healthy replica")
	}
	var noted bool
	for _, tk := range cp.Tickets() {
		for _, n := range tk.Notes {
			if strings.Contains(n, "did not reproduce") {
				noted = true
			}
		}
	}
	if !noted {
		t.Fatal("non-reproducibility never noted")
	}
}

func TestHistoryBounded(t *testing.T) {
	cp := New(Options{})
	for seq := uint64(1); seq <= defaultHistoryLimit+50; seq++ {
		cp.noteHistory("a", controller.Event{Seq: seq})
	}
	h := cp.history("a", defaultHistoryLimit)
	if len(h) != defaultHistoryLimit {
		t.Fatalf("history len = %d", len(h))
	}
	if h[0].Seq != 51 {
		t.Fatalf("history should keep the newest events, first seq = %d", h[0].Seq)
	}
}
