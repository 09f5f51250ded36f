package appvisor

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// StubOptions tunes a Stub.
type StubOptions struct {
	// HeartbeatInterval spaces liveness beacons (default 50ms).
	HeartbeatInterval time.Duration
	// RequestTimeout bounds the app's synchronous Context calls
	// (default 5s).
	RequestTimeout time.Duration
	// QueueSize bounds queued events (default 256).
	QueueSize int
	// Tracer records the stub-side handler span of each traced event.
	// The span's parent arrives over the wire (wireVersion 3), so the
	// stub — even as a separate process with its own Tracer — joins the
	// trace its proxy started. Nil disables stub-side spans.
	Tracer *trace.Tracer
	// WireFault, when set, intercepts the stub's event acknowledgments
	// (dgEventDone) for fault injection: a dropped ack makes the proxy
	// see a crash for an event the app in fact processed.
	WireFault WireFault
}

func (o *StubOptions) fill() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 50 * time.Millisecond
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 5 * time.Second
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 256
	}
}

// Stub hosts one SDN-App in an isolated failure domain and bridges it to
// an AppVisor proxy over UDP. The stub is a light-weight wrapper, as the
// paper puts it: it relays events in, converts the app's controller
// calls to RPCs, heartbeats, and — on an app panic — reports the crash
// and dies, exactly as a crashing stub process would.
type Stub struct {
	app  controller.App
	opts StubOptions

	conn *net.UDPConn // connected to the proxy

	mu      sync.Mutex
	waiters map[uint64]chan *datagram

	nextID atomic.Uint64
	events chan stubWork
	dead   atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup

	// EventsHandled counts events the app processed to completion.
	EventsHandled atomic.Uint64
}

// StartStub launches a stub for app, registering it with the proxy at
// proxyAddr (e.g. "127.0.0.1:7001"). The returned stub is live:
// heartbeats flow and events will be processed in arrival order.
func StartStub(app controller.App, proxyAddr string, opts StubOptions) (*Stub, error) {
	opts.fill()
	raddr, err := net.ResolveUDPAddr("udp", proxyAddr)
	if err != nil {
		return nil, fmt.Errorf("appvisor: resolving proxy address: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("appvisor: dialing proxy: %w", err)
	}
	// Fragmented snapshots/restores arrive in bursts; large socket
	// buffers keep loopback UDP from shedding them.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	s := &Stub{
		app:     app,
		opts:    opts,
		conn:    conn,
		waiters: make(map[uint64]chan *datagram),
		events:  make(chan stubWork, opts.QueueSize),
		done:    make(chan struct{}),
	}
	reg, err := encodeRegister(app.Name(), app.Subscriptions())
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := s.send(&datagram{Type: dgRegister, Payload: reg}); err != nil {
		conn.Close()
		return nil, err
	}
	s.wg.Add(3)
	go s.readLoop()
	go s.workLoop()
	go s.heartbeatLoop()
	return s, nil
}

// Alive reports whether the stub (and so the hosted app) is running.
func (s *Stub) Alive() bool { return !s.dead.Load() }

// Kill hard-stops the stub without a crash report, simulating a
// SIGKILL'd stub process. The proxy must discover the death through
// heartbeat loss or RPC timeout.
func (s *Stub) Kill() { s.terminate() }

// terminate stops all stub goroutines and closes the socket.
func (s *Stub) terminate() {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	close(s.done)
	s.conn.Close()
	// Fail anything blocked on a Context RPC.
	s.mu.Lock()
	for id, w := range s.waiters {
		close(w)
		delete(s.waiters, id)
	}
	s.mu.Unlock()
}

func (s *Stub) send(d *datagram) error {
	if f := s.opts.WireFault; f != nil && d.Type == dgEventDone {
		verdict := f("stub", s.app.Name(), d.Type)
		if handled, err := applyWireFault(verdict, d, s.conn, nil); handled {
			return err
		}
	}
	return writeDatagram(s.conn, nil, d)
}

func (s *Stub) readLoop() {
	defer s.wg.Done()
	buf := make([]byte, maxDatagram)
	reasm := newReassembler()
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return
		}
		// Zero-copy: dv.Payload aliases buf. Events are decoded inline
		// (openflow.Decode copies any bytes it retains); branches that
		// keep the raw payload longer detach() first.
		dv, err := parseDatagramView(buf[:n])
		if err != nil {
			continue
		}
		d, err := reasm.accept(&dv)
		if err != nil || d == nil {
			continue
		}
		switch d.Type {
		case dgRegisterAck:
			// Registration complete; nothing to store stub-side.
		case dgEvent, dgEventImage:
			ev, err := decodeEvent(d.Payload)
			if err != nil {
				_ = s.send(&datagram{Type: dgEventDone, ID: d.ID, Payload: statusPayload(err)})
				continue
			}
			s.enqueue(stubWork{ev: ev, rpcID: d.ID, reply: dgEventDone, image: d.Type == dgEventImage})
		case dgResponse:
			d.detach() // handed to a waiter, outlives buf
			s.mu.Lock()
			w := s.waiters[d.ID]
			delete(s.waiters, d.ID)
			s.mu.Unlock()
			if w != nil {
				w <- d
			}
		case dgSnapshotReq:
			s.enqueue(stubWork{rpcID: d.ID, reply: dgSnapshotReply})
		case dgRestoreReq:
			d.detach() // queued, and the app's Restore may retain the bytes
			s.enqueue(stubWork{rpcID: d.ID, reply: dgRestoreDone, state: d.Payload})
		case dgShutdown:
			s.terminate()
			return
		}
	}
}

// stubWork is one call into the app (event, snapshot or restore),
// answered by one reply datagram under the request's RPC id. All run on
// the work goroutine in arrival order, so a state request never races a
// handler still busy with an event a wire fault delayed or duplicated.
type stubWork struct {
	ev    controller.Event
	rpcID uint64
	reply uint8
	image bool   // dgEventImage: the ack carries the app's post-event image
	state []byte // dgRestoreReq: the image to restore
}

func (s *Stub) enqueue(w stubWork) {
	select {
	case s.events <- w:
	default:
		_ = s.send(&datagram{Type: w.reply, ID: w.rpcID,
			Payload: statusPayload(fmt.Errorf("appvisor: stub queue full"))})
	}
}

func (s *Stub) workLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case w := <-s.events:
			switch w.reply {
			case dgEventDone:
				s.handleWork(w)
			case dgSnapshotReply:
				s.handleState(w, controller.Snapshotter.Snapshot)
			default:
				s.handleState(w, func(snap controller.Snapshotter) ([]byte, error) { return nil, snap.Restore(w.state) })
			}
		}
	}
}

// contain runs app code inside the containment boundary. A panic closes
// sp (the span the code ran under, may be nil), is reported to the proxy
// and terminates the stub, where a real stub process would exit.
func (s *Stub) contain(sp *trace.Span, fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			sp.Attr("panic", fmt.Sprint(r))
			sp.End()
			stack := make([]byte, 16<<10) // one walk, unlike debug.Stack's growing buffer
			_ = s.send(&datagram{Type: dgCrash, Payload: encodeCrash(fmt.Sprint(r), string(stack[:runtime.Stack(stack, false)]))})
			s.terminate()
		}
	}()
	fn()
	return false
}

// handleWork runs the app's handler on one event. A panic kills the
// stub. For a dgEventImage the app is snapshotted once its handler has
// returned, and the image rides the ack.
func (s *Stub) handleWork(w stubWork) {
	var handlerErr error
	ev := w.ev
	sp := s.opts.Tracer.StartSpan(ev.Trace, "stub.handle")
	if sp != nil {
		sp.Attr("app", s.app.Name())
		ev.Trace.SpanID = sp.Context().SpanID
	}
	if s.contain(sp, func() { handlerErr = s.app.HandleEvent(&stubContext{s: s}, ev) }) {
		return
	}
	sp.End()
	s.EventsHandled.Add(1)
	var image []byte
	if snap, err := s.snapshotter(); err == nil && w.image {
		if s.contain(nil, func() { image, err = snap.Snapshot() }) {
			return
		}
		if err != nil {
			image = nil
		}
	}
	_ = s.send(&datagram{Type: dgEventDone, ID: w.rpcID, Payload: eventDonePayload(handlerErr, image)})
}

func (s *Stub) snapshotter() (controller.Snapshotter, error) {
	if snap, ok := s.app.(controller.Snapshotter); ok {
		return snap, nil
	}
	return nil, fmt.Errorf("app %q does not snapshot", s.app.Name())
}

// handleState answers a snapshot or restore request: call runs the
// app's Snapshot or Restore, contained like a handler.
func (s *Stub) handleState(w stubWork, call func(controller.Snapshotter) ([]byte, error)) {
	var state []byte
	snap, err := s.snapshotter()
	if err == nil && s.contain(nil, func() { state, err = call(snap) }) {
		return
	}
	payload := statusPayload(err)
	if err == nil {
		payload = append(payload, state...)
	}
	_ = s.send(&datagram{Type: w.reply, ID: w.rpcID, Payload: payload})
}

func (s *Stub) heartbeatLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			_ = s.send(&datagram{Type: dgHeartbeat})
		}
	}
}

// rpc performs one synchronous exchange with the proxy.
func (s *Stub) rpc(op uint8, dpid uint64, msg openflow.Message) (*datagram, error) {
	if s.dead.Load() {
		return nil, fmt.Errorf("appvisor: stub is dead")
	}
	payload, err := encodeRequest(op, dpid, msg)
	if err != nil {
		return nil, err
	}
	id := s.nextID.Add(1)
	w := make(chan *datagram, 1)
	s.mu.Lock()
	s.waiters[id] = w
	s.mu.Unlock()
	if err := s.send(&datagram{Type: dgRequest, ID: id, Payload: payload}); err != nil {
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return nil, err
	}
	select {
	case d, ok := <-w:
		if !ok {
			return nil, fmt.Errorf("appvisor: stub terminated mid-call")
		}
		return d, nil
	case <-time.After(s.opts.RequestTimeout):
		s.mu.Lock()
		delete(s.waiters, id)
		s.mu.Unlock()
		return nil, fmt.Errorf("appvisor: proxy call timed out")
	}
}

// stubContext implements controller.Context for the hosted app by
// translating every call into a proxy RPC.
type stubContext struct {
	s *Stub
}

// call performs a Context call whose reply is a bare status.
func (c *stubContext) call(op uint8, dpid uint64, msg openflow.Message) error {
	d, err := c.s.rpc(op, dpid, msg)
	if err != nil {
		return err
	}
	status, _, ok := decodeStatus(d.Payload)
	if !ok {
		return ErrBadDatagram
	}
	return status
}

func (c *stubContext) SendMessage(dpid uint64, msg openflow.Message) error {
	return c.call(opSendMessage, dpid, msg)
}

func (c *stubContext) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	return c.SendMessage(dpid, fm)
}

func (c *stubContext) SendPacketOut(dpid uint64, po *openflow.PacketOut) error {
	return c.SendMessage(dpid, po)
}

func (c *stubContext) RequestStats(dpid uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error) {
	d, err := c.s.rpc(opStats, dpid, req)
	if err != nil {
		return nil, err
	}
	status, rest, ok := decodeStatus(d.Payload)
	if !ok {
		return nil, ErrBadDatagram
	}
	if status != nil {
		return nil, status
	}
	msg, err := openflow.Decode(rest)
	if err != nil {
		return nil, err
	}
	sr, ok := msg.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("appvisor: stats answered by %v", msg.Type())
	}
	return sr, nil
}

func (c *stubContext) Barrier(dpid uint64) error { return c.call(opBarrier, dpid, nil) }

func (c *stubContext) Switches() []uint64 {
	d, err := c.s.rpc(opSwitches, 0, nil)
	if err != nil {
		return nil
	}
	out, err := decodeSwitches(d.Payload)
	if err != nil {
		return nil
	}
	return out
}

func (c *stubContext) Ports(dpid uint64) []openflow.PhyPort {
	d, err := c.s.rpc(opPorts, dpid, nil)
	if err != nil {
		return nil
	}
	out, err := decodePorts(d.Payload)
	if err != nil {
		return nil
	}
	return out
}

func (c *stubContext) Topology() []controller.LinkInfo {
	d, err := c.s.rpc(opTopology, 0, nil)
	if err != nil {
		return nil
	}
	out, err := decodeTopology(d.Payload)
	if err != nil {
		return nil
	}
	return out
}
