package appvisor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/metrics"
	"legosdn/internal/openflow"
)

// lockedApp serializes the hosted app behind a mutex, so that the test
// goroutine may call Snapshot on the very instance the stub hosts (the
// UDP hop gives the race detector no happens-before edge), and counts
// what the stub asked of it.
type lockedApp struct {
	controller.App
	mu        sync.Mutex
	handled   int
	snapshots int
}

func (a *lockedApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.handled++
	return a.App.HandleEvent(ctx, ev)
}

func (a *lockedApp) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snapshots++
	return a.App.(controller.Snapshotter).Snapshot()
}

func (a *lockedApp) Restore(state []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.App.(controller.Snapshotter).Restore(state)
}

func (a *lockedApp) counts() (handled, snapshots int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.handled, a.snapshots
}

// imageRig is a proxy over an in-process stub whose hosted instance (the
// latest one: a respawn replaces it) the test can reach directly.
type imageRig struct {
	*Proxy
	hosted atomic.Pointer[lockedApp]
	images atomic.Int64 // dgEventImage datagrams the proxy sent
}

func newImageRig(t *testing.T, newApp func() controller.App, sopts StubOptions, popts ProxyOptions) *imageRig {
	t.Helper()
	r := &imageRig{}
	if sopts.HeartbeatInterval == 0 {
		sopts.HeartbeatInterval = 20 * time.Millisecond
	}
	popts.Metrics = metrics.NewRegistry()
	factory := InProcessFactory(func() controller.App {
		a := &lockedApp{App: newApp()}
		r.hosted.Store(a)
		return a
	}, sopts)
	p, err := NewProxy("test", &fakeCtx{}, factory, popts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	r.Proxy = p
	r.watchSends()
	return r
}

// watchSends counts image requests through a wire fault that passes
// everything.
func (r *imageRig) watchSends() {
	r.SetWireFault(func(_, _ string, dgType uint8) WireVerdict {
		if dgType == dgEventImage {
			r.images.Add(1)
		}
		return WireVerdict{}
	})
}

// rpcs is how many RPCs to the stub have completed.
func (r *imageRig) rpcs() uint64 { return r.rpcLatency.Snapshot().Count }

func (r *imageRig) direct(t *testing.T) []byte {
	t.Helper()
	b, err := r.hosted.Load().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapshot is Proxy.Snapshot, checked against the hosted instance and
// against whether it was expected to cost a round trip.
func (r *imageRig) snapshot(t *testing.T, wantRPC bool) []byte {
	t.Helper()
	before := r.rpcs()
	got, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := r.direct(t); !bytes.Equal(got, want) {
		t.Fatalf("Proxy.Snapshot() = %x, the hosted app's own Snapshot() = %x", got, want)
	}
	if wentToStub := r.rpcs() != before; wentToStub != wantRPC {
		t.Fatalf("snapshot went to the stub: %v, want %v", wentToStub, wantRPC)
	}
	return got
}

func (r *imageRig) heldImage() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.image
}

// tcpFrame is a minimal Ethernet/IPv4/TCP frame the registry apps parse.
func tcpFrame(src, dst byte, tpDst uint16) []byte {
	b := make([]byte, 38)
	b[5], b[11] = dst, src
	b[12], b[13] = 0x08, 0x00
	b[14+9] = 6
	b[14+15], b[14+19] = src, dst
	binary.BigEndian.PutUint16(b[34:], 1000+uint16(src))
	binary.BigEndian.PutUint16(b[36:], tpDst)
	return b
}

func randomEvent(rng *rand.Rand, seq uint64) controller.Event {
	ev := controller.Event{Seq: seq, DPID: uint64(1 + rng.Intn(3))}
	switch n := rng.Intn(20); {
	case n < 14:
		ev.Kind = controller.EventPacketIn
		ev.Message = &openflow.PacketIn{BufferID: openflow.BufferIDNone, InPort: uint16(1 + rng.Intn(4)),
			Data: tcpFrame(byte(1+rng.Intn(12)), byte(1+rng.Intn(12)), []uint16{22, 80, 443}[rng.Intn(3)])}
	case n < 16:
		ev.Kind = controller.EventFlowRemoved
		ev.Message = &openflow.FlowRemoved{Match: openflow.MatchAll(), Priority: 5,
			PacketCount: uint64(rng.Intn(1000)), ByteCount: uint64(rng.Intn(1 << 20))}
	case n < 18:
		ev.Kind = controller.EventSwitchDown
	case n < 19:
		ev.Kind = controller.EventSwitchUp
	default:
		ev.Kind = controller.EventPortStatus
	}
	return ev
}

// For every registry app, over a seeded random event stream with a
// checkpoint before every event (CheckpointEvery 1): the snapshot the
// controller gets is byte-equal to the hosted app's own, and only the
// first one costs a dgSnapshotReq round trip.
func TestImageRidesReplyForRegistryApps(t *testing.T) {
	const events = 1000
	for _, name := range []string{"learning-switch", "firewall", "stats-collector", "spanning-tree", "flowscale", "routing"} {
		t.Run(name, func(t *testing.T) {
			r := newImageRig(t, func() controller.App {
				a, err := apps.New(name)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}, StubOptions{}, ProxyOptions{})
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < events; i++ {
				r.snapshot(t, i == 0)
				_ = r.HandleEvent(nil, randomEvent(rng, uint64(i+1)))
			}
			if extra := r.rpcs() - events; extra != 1 {
				t.Fatalf("%d snapshot round trips over %d checkpointed events, want 1", extra, events)
			}
			if got := r.images.Load(); got != events {
				t.Fatalf("%d of %d events asked for the image", got, events)
			}
		})
	}
}

// Whoever never calls Snapshot (ModeIsolated) never asks for an image,
// and the stub never snapshots the app.
func TestNoCheckpointNoImage(t *testing.T) {
	r := newImageRig(t, func() controller.App { return &echoApp{} }, StubOptions{}, ProxyOptions{})
	for i := 0; i < 50; i++ {
		if err := r.HandleEvent(nil, pktInEvent(uint64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, snaps := r.hosted.Load().counts(); snaps != 0 || r.images.Load() != 0 || r.rpcs() != 50 {
		t.Fatalf("uncheckpointed app: %d snapshots in the stub, %d image requests, %d RPCs for 50 events",
			snaps, r.images.Load(), r.rpcs())
	}
}

// The held image is dropped by everything that could have changed the
// app other than a restore (TestRestoreHoldsImage); the next Snapshot
// then goes to the stub and is still the app's state.
func TestHeldImageInvalidation(t *testing.T) {
	var dropAck atomic.Bool
	sopts := StubOptions{WireFault: func(string, string, uint8) WireVerdict {
		if dropAck.CompareAndSwap(true, false) {
			return WireVerdict{Action: WireDrop}
		}
		return WireVerdict{}
	}}
	seq := uint64(100)
	event := func(port uint16) controller.Event { seq++; return pktInEvent(seq, port) }
	respawn := func(t *testing.T, r *imageRig) {
		t.Helper()
		if err := r.Respawn(); err != nil {
			t.Fatal(err)
		}
	}
	causes := []struct {
		name  string
		cause func(t *testing.T, r *imageRig)
	}{
		{"killed stub, respawn", func(t *testing.T, r *imageRig) {
			r.KillStub()               // no report: the heartbeat monitor finds out
			for r.LastCrash() == nil { // recorded under the lock that drops the image
				time.Sleep(time.Millisecond)
			}
			if r.heldImage() != nil {
				t.Fatal("image survived the heartbeat loss")
			}
			respawn(t, r)
		}},
		{"reported crash", func(t *testing.T, r *imageRig) {
			var ce *CrashError
			if err := r.HandleEvent(nil, event(66)); !errors.As(err, &ce) || ce.Report.Reason != CrashReported {
				t.Fatalf("poisoned event: %v", err)
			}
			if r.heldImage() != nil {
				t.Fatal("image survived the crash")
			}
			respawn(t, r)
		}},
		{"dropped dgEventDone", func(t *testing.T, r *imageRig) {
			dropAck.Store(true)
			var ce *CrashError
			if err := r.HandleEvent(nil, event(1)); !errors.As(err, &ce) || ce.Report.Reason != CrashTimeout {
				t.Fatalf("event with a lost ack: %v", err)
			}
			if r.heldImage() != nil {
				t.Fatal("image survived the timeout")
			}
			respawn(t, r)
		}},
		{"CheckpointEvery 3", func(t *testing.T, r *imageRig) {
			for i := 0; i < 2; i++ { // two more events, no checkpoint between them
				if err := r.HandleEvent(nil, event(1)); err != nil {
					t.Fatal(err)
				}
			}
			if got := r.images.Load(); got != 2 {
				t.Fatalf("%d image requests, want 2: an event no checkpoint preceded asks for none", got)
			}
		}},
		{"duplicated send", func(t *testing.T, r *imageRig) {
			r.snapshot(t, false) // so that the duplicated event is one that asks for the image
			r.SetWireFault(func(string, string, uint8) WireVerdict { return WireVerdict{Action: WireDup} })
			before, _ := r.hosted.Load().counts()
			if err := r.HandleEvent(nil, event(1)); err != nil {
				t.Fatal(err)
			}
			r.watchSends()
			for h := before; h != before+2; h, _ = r.hosted.Load().counts() {
				time.Sleep(time.Millisecond) // the duplicate is handled after the first ack
			}
		}},
	}
	for _, c := range causes {
		t.Run(c.name, func(t *testing.T) {
			r := newImageRig(t, func() controller.App { return &echoApp{crashOn: 66} }, sopts,
				ProxyOptions{EventTimeout: 150 * time.Millisecond, HeartbeatTimeout: 100 * time.Millisecond})
			r.snapshot(t, true) // nothing held yet
			if err := r.HandleEvent(nil, event(1)); err != nil {
				t.Fatal(err)
			}
			r.snapshot(t, false) // served from the reply
			r.snapshot(t, false) // and again: reading does not consume it
			if err := r.HandleEvent(nil, event(1)); err != nil {
				t.Fatal(err)
			}
			c.cause(t, r)
			if r.heldImage() != nil {
				t.Fatal("image still held")
			}
			r.snapshot(t, true)
		})
	}
}

// A restore leaves the app holding exactly the bytes it loaded: they
// are the held image, served without a round trip until the next event,
// whose reply replaces them.
func TestRestoreHoldsImage(t *testing.T) {
	r := newImageRig(t, func() controller.App { return &echoApp{} }, StubOptions{}, ProxyOptions{})
	r.snapshot(t, true)
	if err := r.HandleEvent(nil, pktInEvent(1, 1)); err != nil {
		t.Fatal(err)
	}
	restored := binary.BigEndian.AppendUint64(nil, 77)
	if err := r.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if held := r.heldImage(); !bytes.Equal(held, restored) {
		t.Fatalf("held image after restore %x, want the restored %x", held, restored)
	}
	for i := 0; i < 2; i++ {
		if got := r.snapshot(t, false); !bytes.Equal(got, restored) {
			t.Fatalf("snapshot %d after restore = %x, want %x", i+1, got, restored)
		}
	}
	if err := r.HandleEvent(nil, pktInEvent(2, 1)); err != nil {
		t.Fatal(err)
	}
	if held := r.heldImage(); held == nil || bytes.Equal(held, restored) {
		t.Fatalf("held image after the next event %x, want the event's reply", held)
	}
	r.snapshot(t, false)
}

// bigApp's image does not fit one datagram.
type bigApp struct {
	echoApp
	fill byte
}

func (a *bigApp) HandleEvent(controller.Context, controller.Event) error { a.fill++; return nil }
func (a *bigApp) Snapshot() ([]byte, error) {
	b := bytes.Repeat([]byte{a.fill}, 200<<10)
	binary.BigEndian.PutUint32(b[100<<10:], 0xfeedface)
	return b, nil
}

func TestLargeImageRidesReplyFragmented(t *testing.T) {
	r := newImageRig(t, func() controller.App { return &bigApp{} }, StubOptions{}, ProxyOptions{})
	r.snapshot(t, true)
	for i := 0; i < 3; i++ {
		if err := r.HandleEvent(nil, pktInEvent(uint64(i+1), 1)); err != nil {
			t.Fatal(err)
		}
		if img := r.snapshot(t, false); len(img) != 200<<10 || img[0] != byte(i+1) {
			t.Fatalf("image after event %d: %d bytes, fill %d", i+1, len(img), img[0])
		}
	}
}

func TestEventDonePayloadRoundTrip(t *testing.T) {
	for _, status := range []error{nil, errors.New("handler said no")} {
		for _, image := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{7}, 70000)} {
			st, img, ok := decodeEventDone(eventDonePayload(status, image))
			if !ok || (st == nil) != (status == nil) || (img == nil) != (image == nil) || !bytes.Equal(img, image) {
				t.Fatalf("status %v image %d bytes (nil %v): got %v, %d bytes (nil %v), ok %v",
					status, len(image), image == nil, st, len(img), img == nil, ok)
			}
		}
	}
	if _, img, _ := decodeEventDone([]byte{0, 2, 9, 9}); img != nil {
		t.Fatal("unknown marker read as an image")
	}
}

func TestWireV3FrameRefused(t *testing.T) {
	if WireVersion != 4 {
		t.Fatalf("WireVersion = %d", WireVersion)
	}
	b, _ := (&datagram{Type: dgEvent, ID: 1}).marshal()
	if _, err := parseDatagramView(b); err != nil {
		t.Fatal(err)
	}
	b[2] = 3
	if _, err := parseDatagramView(b); !errors.Is(err, ErrBadDatagram) {
		t.Fatalf("v3 frame: %v", err)
	}
}

// panicApp panics in Snapshot from its failAt-th call on, and in every
// Restore.
type panicApp struct {
	echoApp
	failAt, calls int
}

func (a *panicApp) Snapshot() ([]byte, error) {
	if a.calls++; a.calls >= a.failAt {
		panic("panicApp: snapshot bug")
	}
	return a.echoApp.Snapshot()
}
func (a *panicApp) Restore([]byte) error { panic("panicApp: restore bug") }

// An app that panics inside Snapshot or Restore takes its stub down, not
// the controller process: the RPC fails, the crash is reported like a
// handler panic, and a respawn serves again. (On the parent commit the
// panic unwinds the stub's read goroutine and kills the test binary.)
func containedPanic(t *testing.T, failAt int, call func(p *Proxy) error, want string) {
	t.Helper()
	var tickets atomic.Int64
	p, _ := newTestProxy(t, func() controller.App { return &panicApp{failAt: failAt} },
		ProxyOptions{OnCrash: func(*CrashReport) { tickets.Add(1) }})
	err := call(p)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one naming %q", err, want)
	}
	if p.StubUp() || tickets.Load() != 1 {
		t.Fatalf("stub up %v, %d crash reports", p.StubUp(), tickets.Load())
	}
	if rep := p.LastCrash(); rep.Reason != CrashReported || !strings.Contains(rep.Stack, "panicApp") {
		t.Fatalf("crash report %+v", rep)
	}
	if err := p.HandleEvent(nil, pktInEvent(9, 1)); !errors.Is(err, ErrStubDown) {
		t.Fatalf("event after the crash: %v", err)
	}
	if err := p.Respawn(); err != nil {
		t.Fatal(err)
	}
	if err := p.HandleEvent(nil, pktInEvent(10, 1)); err != nil {
		t.Fatalf("event after respawn: %v", err)
	}
}

func TestStubContainsSnapshotPanic(t *testing.T) {
	containedPanic(t, 1, func(p *Proxy) error { _, err := p.Snapshot(); return err }, "snapshot bug")
}

func TestStubContainsRestorePanic(t *testing.T) {
	containedPanic(t, 99, func(p *Proxy) error { return p.Restore(make([]byte, 8)) }, "restore bug")
}

func TestStubContainsPostHandlerSnapshotPanic(t *testing.T) {
	containedPanic(t, 2, func(p *Proxy) error {
		if _, err := p.Snapshot(); err != nil { // call 1: fine, and the next event asks for the image
			return nil
		}
		return p.HandleEvent(nil, pktInEvent(1, 1))
	}, "snapshot bug")
}

// overlapApp's handler takes a while; its Snapshot and Restore count
// the calls that land while a handler is still running.
type overlapApp struct{ busy, overlaps atomic.Int32 }

func (a *overlapApp) Name() string { return "overlap" }
func (a *overlapApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *overlapApp) HandleEvent(controller.Context, controller.Event) error {
	a.busy.Add(1)
	defer a.busy.Add(-1)
	time.Sleep(20 * time.Millisecond)
	return nil
}
func (a *overlapApp) Snapshot() ([]byte, error) { a.note(); return []byte{0}, nil }
func (a *overlapApp) Restore([]byte) error      { a.note(); return nil }
func (a *overlapApp) note() {
	if a.busy.Load() != 0 {
		a.overlaps.Add(1)
	}
}

// A duplicated event runs a second time after the proxy has its ack. A
// snapshot or restore sent meanwhile waits for that handler instead of
// running beside it on another goroutine.
func TestStubStateRequestsWaitForHandler(t *testing.T) {
	app := &overlapApp{}
	p, _ := newTestProxy(t, func() controller.App { return app }, ProxyOptions{})
	p.SetWireFault(func(string, string, uint8) WireVerdict { return WireVerdict{Action: WireDup} })
	for seq := uint64(1); seq <= 2; seq++ {
		if err := p.HandleEvent(nil, pktInEvent(seq, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := p.Restore([]byte{0}); err != nil {
			t.Fatal(err)
		}
	}
	if n := app.overlaps.Load(); n != 0 {
		t.Fatalf("%d state calls ran beside a handler", n)
	}
}

// One proxied round trip stays within a fixed allocation budget (it
// measures 13 here, 15 on the parent commit).
func TestRoundTripAllocs(t *testing.T) {
	p, _ := newTestProxy(t, func() controller.App { return &echoApp{queried: true} },
		ProxyOptions{EventTimeout: time.Hour, HeartbeatTimeout: -1})
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.rpcToStub(&datagram{Type: dgSnapshotReq, ID: p.nextID.Add(1)}, time.Hour); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 14 {
		t.Errorf("a snapshot round trip allocates %v times", allocs)
	}
}

// nopApp does nothing with its events, so a round trip is the relay alone.
type nopApp struct{}

func (nopApp) Name() string                                           { return "nop" }
func (nopApp) Subscriptions() []controller.EventKind                  { return controller.AllEventKinds() }
func (nopApp) HandleEvent(controller.Context, controller.Event) error { return nil }

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// One proxied event, proxy and stub side together, stays within a fixed
// allocation budget (it measures 20; wrapping the event in a one-element
// slice on each side makes it 21).
func TestEventRoundTripAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under the race detector")
	}
	p, _ := newTestProxy(t, func() controller.App { return nopApp{} },
		ProxyOptions{EventTimeout: time.Hour, HeartbeatTimeout: -1})
	ev := pktInEvent(1, 1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.HandleEvent(nil, ev); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Errorf("an event round trip allocates %v times", allocs)
	}
}
