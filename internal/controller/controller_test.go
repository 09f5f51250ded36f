package controller

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// testApp is a scriptable SDN-App for controller tests.
type testApp struct {
	name   string
	subs   []EventKind
	handle func(ctx Context, ev Event) error

	mu     sync.Mutex
	events []Event
}

func (a *testApp) Name() string { return a.name }
func (a *testApp) Subscriptions() []EventKind {
	if a.subs == nil {
		return AllEventKinds()
	}
	return a.subs
}
func (a *testApp) HandleEvent(ctx Context, ev Event) error {
	a.mu.Lock()
	a.events = append(a.events, ev)
	a.mu.Unlock()
	if a.handle != nil {
		return a.handle(ctx, ev)
	}
	return nil
}
func (a *testApp) eventCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.events)
}
func (a *testApp) lastEvent() Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.events) == 0 {
		return Event{}
	}
	return a.events[len(a.events)-1]
}

// startNetwork attaches every switch in n to c over in-memory pipes.
func startNetwork(t *testing.T, c *Controller, n *netsim.Network) {
	t.Helper()
	for _, sw := range n.Switches() {
		ctrlSide, swSide := openflow.Pipe()
		if err := sw.Attach(swSide); err != nil {
			t.Fatal(err)
		}
		if err := c.AttachSwitchConn(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHandshakeRegistersSwitch(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	app := &testApp{name: "watcher"}
	c.Register(app)

	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	if got := c.Switches(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("switches = %v", got)
	}
	if ports := c.Ports(1); len(ports) != 2 {
		t.Fatalf("ports = %d, want 2", len(ports))
	}
	eventually(t, "switch-up event", func() bool {
		return app.eventCount() >= 1 && app.lastEvent().Kind == EventSwitchUp
	})
}

func TestPacketInDispatchOrder(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	var order []string
	var mu sync.Mutex
	mk := func(name string) *testApp {
		return &testApp{name: name, subs: []EventKind{EventPacketIn},
			handle: func(ctx Context, ev Event) error {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return nil
			}}
	}
	c.Register(mk("first"))
	c.Register(mk("second"))

	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, nil))

	eventually(t, "both apps to see the event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) == 2
	})
	mu.Lock()
	defer mu.Unlock()
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("dispatch order = %v", order)
	}
}

func TestMonolithicFateSharing(t *testing.T) {
	c := New(Config{Monolithic: true})
	defer c.Stop()
	crasher := &testApp{name: "crasher", subs: []EventKind{EventPacketIn},
		handle: func(ctx Context, ev Event) error { panic("deterministic bug") }}
	bystander := &testApp{name: "bystander", subs: []EventKind{EventPacketIn}}
	c.Register(crasher)
	c.Register(bystander)

	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, nil))

	eventually(t, "controller crash", c.Crashed)
	// Fate sharing: the bystander app never ran, and the control plane
	// rejects further work.
	if bystander.eventCount() != 0 {
		t.Error("bystander should have died with the controller before its turn")
	}
	if err := c.Inject(Event{Kind: EventPacketIn, DPID: 1}); err != ErrCrashed {
		t.Errorf("inject after crash = %v, want ErrCrashed", err)
	}
	if err := c.SendMessage(1, &openflow.Hello{}); err != ErrCrashed {
		t.Errorf("send after crash = %v, want ErrCrashed", err)
	}
}

func TestIsolatedModeQuarantinesOnlyFailingApp(t *testing.T) {
	var failures []*AppFailure
	var mu sync.Mutex
	c := New(Config{OnAppFailure: func(f *AppFailure) {
		mu.Lock()
		failures = append(failures, f)
		mu.Unlock()
	}})
	defer c.Stop()
	crasher := &testApp{name: "crasher", subs: []EventKind{EventPacketIn},
		handle: func(ctx Context, ev Event) error { panic("bug") }}
	survivor := &testApp{name: "survivor", subs: []EventKind{EventPacketIn}}
	c.Register(crasher)
	c.Register(survivor)

	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, nil))

	eventually(t, "survivor sees first event", func() bool { return survivor.eventCount() == 1 })
	if c.Crashed() {
		t.Fatal("controller should survive")
	}
	eventually(t, "crasher quarantined", func() bool { return c.AppDisabled("crasher") })

	// Second event only reaches the survivor.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 3, 4, nil))
	eventually(t, "survivor sees second event", func() bool { return survivor.eventCount() == 2 })
	if crasher.eventCount() != 1 {
		t.Errorf("crasher saw %d events, want 1", crasher.eventCount())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(failures) != 1 || failures[0].App != "crasher" || len(failures[0].Stack) == 0 {
		t.Fatalf("failures = %+v", failures)
	}
	if ev, fails := c.AppStats("crasher"); ev != 1 || fails != 1 {
		t.Errorf("crasher stats = %d/%d", ev, fails)
	}
}

func TestFlowModReachesSwitch(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	fm := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 7,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 101}},
	}
	if err := c.SendFlowMod(1, fm); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(1); err != nil {
		t.Fatal(err)
	}
	if n.Switch(1).Table().Len() != 1 {
		t.Fatal("flow mod never landed")
	}
}

func TestRequestStats(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	reply, err := c.RequestStats(1, &openflow.StatsRequest{StatsType: openflow.StatsTypePort})
	if err != nil {
		t.Fatal(err)
	}
	if reply.StatsType != openflow.StatsTypePort || len(reply.Ports) != 2 {
		t.Fatalf("reply %+v", reply)
	}
}

func TestStatsRewriterRuns(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	c.AddStatsRewriter(func(dpid uint64, reply *openflow.StatsReply) {
		reply.Ports = nil // redact everything
	})
	reply, err := c.RequestStats(1, &openflow.StatsRequest{StatsType: openflow.StatsTypePort})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Ports) != 0 {
		t.Fatal("rewriter did not run")
	}
}

func TestOutboundHookSuppressAndRewrite(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	var seen []openflow.Type
	c.AddOutboundHook(func(dpid uint64, msg openflow.Message) (openflow.Message, error) {
		seen = append(seen, msg.Type())
		if msg.Type() == openflow.TypePacketOut {
			return nil, nil // suppress packet-outs
		}
		if fm, ok := msg.(*openflow.FlowMod); ok {
			fm = fm.Clone()
			fm.Priority = 42 // rewrite
			return fm, nil
		}
		return msg, nil
	})

	c.SendPacketOut(1, &openflow.PacketOut{BufferID: openflow.BufferIDNone, InPort: openflow.PortNone,
		Data: (&netsim.Frame{DlType: netsim.EtherTypeIPv4}).Marshal()})
	c.SendFlowMod(1, &openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FlowModAdd,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone})
	c.Barrier(1)

	entries := n.Switch(1).Table().Entries()
	if len(entries) != 1 || entries[0].Priority != 42 {
		t.Fatalf("rewrite not applied: %+v", entries)
	}
	if len(seen) != 2 {
		t.Fatalf("hook saw %d messages", len(seen))
	}
}

func TestSwitchDownEvent(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	app := &testApp{name: "w", subs: []EventKind{EventSwitchDown}}
	c.Register(app)
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	n.SetSwitchDown(1, true)
	eventually(t, "switch-down event", func() bool {
		return app.eventCount() == 1 && app.lastEvent().DPID == 1
	})
	if got := c.Switches(); len(got) != 0 {
		t.Fatalf("switch still registered: %v", got)
	}
	if err := c.SendMessage(1, &openflow.Hello{}); err == nil {
		t.Fatal("send to dead switch should fail")
	}
}

func TestLLDPDiscovery(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Linear(3, nil)
	startNetwork(t, c, n)

	if err := c.DiscoverTopology(); err != nil {
		t.Fatal(err)
	}
	// Linear(3): s1-s2 and s2-s3, both directions discovered = 4 links.
	eventually(t, "4 discovered links", func() bool { return len(c.Topology()) == 4 })
	want := map[LinkInfo]bool{
		{SrcDPID: 1, SrcPort: 2, DstDPID: 2, DstPort: 1}: true,
		{SrcDPID: 2, SrcPort: 1, DstDPID: 1, DstPort: 2}: true,
		{SrcDPID: 2, SrcPort: 2, DstDPID: 3, DstPort: 1}: true,
		{SrcDPID: 3, SrcPort: 1, DstDPID: 2, DstPort: 2}: true,
	}
	for _, l := range c.Topology() {
		if !want[l] {
			t.Errorf("unexpected link %+v", l)
		}
	}
}

func TestPortStatusUpdatesPortView(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	app := &testApp{name: "w", subs: []EventKind{EventPortStatus}}
	c.Register(app)
	n := netsim.Linear(2, nil)
	startNetwork(t, c, n)

	n.SetLinkDown(1, 2, 2, 1, true)
	eventually(t, "port status events", func() bool { return app.eventCount() >= 1 })
	eventually(t, "port view updated", func() bool {
		for _, p := range c.Ports(1) {
			if p.PortNo == 2 && p.LinkDown() {
				return true
			}
		}
		return false
	})
}

func TestInjectSyncBypassesQueue(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	app := &testApp{name: "a", subs: []EventKind{EventPacketIn}}
	c.Register(app)
	if err := c.InjectSync(Event{Kind: EventPacketIn, DPID: 9}); err != nil {
		t.Fatal(err)
	}
	if app.eventCount() != 1 {
		t.Fatal("sync inject did not dispatch inline")
	}
}

func TestSetAppDisabled(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	app := &testApp{name: "a", subs: []EventKind{EventPacketIn}}
	c.Register(app)
	c.SetAppDisabled("a", true)
	c.InjectSync(Event{Kind: EventPacketIn})
	if app.eventCount() != 0 {
		t.Fatal("disabled app received an event")
	}
	c.SetAppDisabled("a", false)
	c.InjectSync(Event{Kind: EventPacketIn})
	if app.eventCount() != 1 {
		t.Fatal("re-enabled app missed the event")
	}
}

func TestControllerUpgradeLosesMonolithicSwitchConns(t *testing.T) {
	// Simulated upgrade: stopping the controller severs every switch.
	c := New(Config{})
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	c.Stop()
	if err := c.SendMessage(1, &openflow.Hello{}); err == nil {
		t.Fatal("send after stop should fail")
	}
}

func TestServeOverTCP(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go c.Serve(l)

	n := netsim.Single(2, nil)
	for _, sw := range n.Switches() {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Attach(openflow.NewConn(conn)); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "switch registered over TCP", func() bool { return len(c.Switches()) == 1 })

	// Full control loop over real TCP: flow mod + barrier + traffic.
	if err := c.SendFlowMod(1, &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 3,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Barrier(1); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, nil))
	eventually(t, "delivery over TCP-programmed rules", func() bool { return h2.ReceivedCount() == 1 })
}

func TestEchoLivenessDetectsSilentDeath(t *testing.T) {
	c := New(Config{EchoInterval: 30 * time.Millisecond})
	defer c.Stop()
	app := &testApp{name: "w", subs: []EventKind{EventSwitchDown}}
	c.Register(app)

	// A fake switch that completes the handshake, then goes silent
	// without closing its connection (a hung peer).
	ctrlSide, swSide := openflow.Pipe()
	silent := make(chan struct{})
	go func() {
		swSide.WriteMessage(&openflow.Hello{})
		for {
			msg, err := swSide.ReadMessage()
			if err != nil {
				return
			}
			if fr, ok := msg.(*openflow.FeaturesRequest); ok {
				swSide.WriteMessage(&openflow.FeaturesReply{
					BaseMsg: openflow.BaseMsg{Xid: fr.Xid}, DatapathID: 9})
			}
			select {
			case <-silent:
				// Hung: keep reading (so writes don't block) but never reply.
			default:
			}
		}
	}()
	if err := c.AttachSwitchConn(ctrlSide); err != nil {
		t.Fatal(err)
	}
	close(silent)
	eventually(t, "silent switch declared dead", func() bool {
		return app.eventCount() >= 1 && app.lastEvent().DPID == 9
	})
}

func TestMultipartStatsMergedOverPipe(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)

	// Enough entries that the reply must split into several parts
	// (each entry ~96B; one part caps near 56KB).
	const entries = 1500
	for i := 0; i < entries; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardTpSrc | openflow.WildcardInPort
		m.TpSrc = uint16(i)
		m.InPort = uint16(i >> 12)
		if _, err := n.Switch(1).Table().Apply(&openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, Priority: uint16(i % 100),
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	reply, err := c.RequestStats(1, &openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Flows) != entries {
		t.Fatalf("merged flows = %d, want %d", len(reply.Flows), entries)
	}
	if reply.Flags&openflow.StatsReplyFlagMore != 0 {
		t.Fatal("merged reply still flagged More")
	}
}

func TestEchoLivenessHealthySwitchStaysUp(t *testing.T) {
	c := New(Config{EchoInterval: 20 * time.Millisecond})
	defer c.Stop()
	n := netsim.Single(2, nil)
	startNetwork(t, c, n)
	// Several echo rounds pass; the healthy switch must stay registered.
	time.Sleep(120 * time.Millisecond)
	if len(c.Switches()) != 1 {
		t.Fatal("healthy switch dropped by echo probing")
	}
	if err := c.Barrier(1); err != nil {
		t.Fatalf("control channel degraded: %v", err)
	}
}

// Regression test: every echoLoop exit path must deregister its
// in-flight waiter from the handle's pending map. The timeout branch
// always did; the write-failure and closed-mid-probe branches used to
// leave the entry behind, leaking one waiter per reconnect on handles
// already superseded in c.switches (where onDisconnect's sweep no
// longer reaches them).
// TestSwHandleCloseFromTwoGoroutines hammers close() the way a leader
// kill does — the pump's onDisconnect and Controller.Stop reaching the
// same handle at once. The check-then-close it replaced let both pass
// the check and panicked with "close of closed channel".
func TestSwHandleCloseFromTwoGoroutines(t *testing.T) {
	c := New(Config{})
	defer c.Stop()
	for i := 0; i < 2000; i++ {
		ctrlSide, swSide := openflow.Pipe()
		h := &swHandle{c: c, conn: ctrlSide, closedCh: make(chan struct{})}
		// A spin barrier, not a channel: both goroutines must be running
		// when they call close, a wake-up apart is too far.
		var ready atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Add(1)
				for ready.Load() < 2 {
				}
				h.close()
			}()
		}
		wg.Wait()
		select {
		case <-h.closedCh:
		default:
			t.Fatal("handle not closed")
		}
		if _, err := swSide.ReadMessage(); err == nil {
			t.Fatal("connection still open after close")
		}
		swSide.Close()
	}
}

func TestEchoLoopCleansPendingOnAllExits(t *testing.T) {
	pendingLen := func(c *Controller, h *swHandle) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(h.pending)
	}
	newHandle := func(c *Controller) (*swHandle, *openflow.Conn) {
		ctrlSide, swSide := openflow.Pipe()
		return &swHandle{
			c:        c,
			conn:     ctrlSide,
			ports:    make(map[uint16]openflow.PhyPort),
			pending:  make(map[uint32]chan openflow.Message),
			closedCh: make(chan struct{}),
		}, swSide
	}
	waitDone := func(t *testing.T, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(3 * time.Second):
			t.Fatal("echoLoop never exited")
		}
	}

	t.Run("write failure", func(t *testing.T) {
		c := New(Config{})
		defer c.Stop()
		h, swSide := newHandle(c)
		swSide.Close() // the probe's WriteMessage fails immediately
		done := make(chan struct{})
		go func() { h.echoLoop(2 * time.Millisecond); close(done) }()
		waitDone(t, done)
		if n := pendingLen(c, h); n != 0 {
			t.Fatalf("pending leaked %d waiter(s) after write failure", n)
		}
	})

	t.Run("closed mid-probe", func(t *testing.T) {
		c := New(Config{})
		defer c.Stop()
		h, swSide := newHandle(c)
		go func() { // peer drains probes but never answers
			for {
				if _, err := swSide.ReadMessage(); err != nil {
					return
				}
			}
		}()
		done := make(chan struct{})
		go func() { h.echoLoop(50 * time.Millisecond); close(done) }()
		// Close the handle while the probe is awaiting its reply.
		eventually(t, "probe in flight", func() bool { return pendingLen(c, h) == 1 })
		h.close()
		waitDone(t, done)
		if n := pendingLen(c, h); n != 0 {
			t.Fatalf("pending leaked %d waiter(s) after close mid-probe", n)
		}
	})

	t.Run("reply timeout", func(t *testing.T) {
		c := New(Config{})
		defer c.Stop()
		h, swSide := newHandle(c)
		go func() {
			for {
				if _, err := swSide.ReadMessage(); err != nil {
					return
				}
			}
		}()
		done := make(chan struct{})
		go func() { h.echoLoop(5 * time.Millisecond); close(done) }()
		waitDone(t, done)
		if n := pendingLen(c, h); n != 0 {
			t.Fatalf("pending leaked %d waiter(s) after echo timeout", n)
		}
		select {
		case <-h.closedCh:
		default:
			t.Fatal("missed echo must close the handle")
		}
	})
}
