package appvisor

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/flightrec"
	"legosdn/internal/metrics"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

// CrashReason classifies how the proxy learned of an app crash.
type CrashReason int

// Crash detection channels, in order of decreasing information.
const (
	CrashReported  CrashReason = iota // stub wrapper sent a dgCrash report
	CrashHeartbeat                    // heartbeats stopped
	CrashTimeout                      // an event RPC timed out
)

func (r CrashReason) String() string {
	switch r {
	case CrashReported:
		return "reported"
	case CrashHeartbeat:
		return "heartbeat-loss"
	case CrashTimeout:
		return "rpc-timeout"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// CrashReport is the proxy's record of one app crash: the raw material
// for Crash-Pad's recovery decision and the operator problem ticket.
type CrashReport struct {
	App        string
	Reason     CrashReason
	PanicValue string
	Stack      string
	// Event is the event in flight when the crash was detected; by the
	// paper's determinism argument, the likely trigger.
	Event    controller.Event
	HasEvent bool
	Detected time.Time
}

// CrashError is returned by Proxy.HandleEvent when the hosted app died
// processing an event. Crash-Pad unwraps it to drive recovery.
type CrashError struct {
	Report *CrashReport
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("appvisor: app %q crashed (%v): %s", e.Report.App, e.Report.Reason, e.Report.PanicValue)
}

// ErrStubDown is returned for events delivered while no live stub is
// attached (crashed and not yet respawned).
var ErrStubDown = errors.New("appvisor: stub down")

// StubFactory (re)creates the stub hosting the app, pointing it at the
// given proxy address. In-process deployments return StartStub with a
// fresh app instance; subprocess deployments exec cmd/legosdn-stub.
type StubFactory func(proxyAddr string) (StubHandle, error)

// StubHandle is the proxy's grip on a running stub.
type StubHandle interface {
	// Kill force-stops the stub.
	Kill()
	// Alive reports liveness as known locally (subprocess handles may
	// only know whether the process has been reaped).
	Alive() bool
}

// InProcessFactory adapts an app constructor to a StubFactory using
// goroutine-domain stubs.
func InProcessFactory(newApp func() controller.App, opts StubOptions) StubFactory {
	return func(proxyAddr string) (StubHandle, error) {
		return StartStub(newApp(), proxyAddr, opts)
	}
}

// ProxyOptions tunes a Proxy.
type ProxyOptions struct {
	// EventTimeout bounds one event round-trip before the app is
	// declared crashed (default 2s).
	EventTimeout time.Duration
	// HeartbeatTimeout is the silence window after which the stub is
	// declared dead (default 500ms). Negative disables heartbeat
	// monitoring (normalized to zero, the internal "disabled" value).
	HeartbeatTimeout time.Duration
	// RegisterTimeout bounds the initial stub registration (default 5s).
	RegisterTimeout time.Duration
	// RespawnBackoff schedules the retries when a replacement stub
	// fails to come up; zero-value fields select the defaults (50ms
	// base, 5s cap, 5 attempts, jittered).
	RespawnBackoff Backoff
	// OnCrash observes every detected crash (problem tickets hook here).
	OnCrash func(*CrashReport)
	// Metrics, when set, registers the proxy's instruments (RPC
	// round-trip latency, timeouts, heartbeat gaps, crashes by reason)
	// labeled with the app name.
	Metrics *metrics.Registry
	// Tracer records the proxy-side relay span of each traced event's
	// stub round trip. Nil disables.
	Tracer *trace.Tracer
	// Flight is the always-on flight recorder: stub lifecycle (crash
	// detections, respawns, kills) leaves bounded structured records for
	// autopsies. Never written on the per-event relay path. Nil no-ops.
	Flight *flightrec.Recorder
}

func (o *ProxyOptions) fill() {
	if o.EventTimeout <= 0 {
		o.EventTimeout = 2 * time.Second
	}
	switch {
	case o.HeartbeatTimeout < 0:
		// Disabled. A raw negative must not survive normalization: any
		// later "gap > HeartbeatTimeout" comparison would be true for
		// every gap, declaring a perfectly live stub dead immediately
		// (and a negative tick interval would panic the monitor).
		o.HeartbeatTimeout = 0
	case o.HeartbeatTimeout == 0:
		o.HeartbeatTimeout = 500 * time.Millisecond
	}
	if o.RegisterTimeout <= 0 {
		o.RegisterTimeout = 5 * time.Second
	}
}

// Proxy is the controller-resident half of AppVisor. It is a regular
// controller.App — the controller needs no modification to host
// isolated apps, which is the paper's headline design constraint — and
// it is a controller.Snapshotter, forwarding checkpoint operations to
// the stub.
type Proxy struct {
	name string
	ctx  controller.Context
	opts ProxyOptions

	conn    *net.UDPConn
	factory StubFactory

	mu         sync.Mutex
	stub       StubHandle
	stubAddr   *net.UDPAddr
	subs       []controller.EventKind
	waiters    map[uint64]chan *datagram
	registered chan struct{}
	lastCrash  *CrashReport
	// The checkpoint rides the reply: Snapshot sets checkpointed, so the
	// next event goes out as a dgEventImage, and image holds what its
	// reply carried or Restore loaded — the app's state until an event,
	// Respawn or a crash could change it, which drops it. nil: none held.
	checkpointed bool
	image        []byte

	nextID   atomic.Uint64
	lastBeat atomic.Int64 // unix nanos of last heartbeat
	stubUp   atomic.Bool
	inFlight atomic.Pointer[controller.Event]
	closed   atomic.Bool
	done     chan struct{}
	wfault   atomic.Pointer[WireFault]

	// EventsRelayed counts events round-tripped through the stub.
	EventsRelayed metrics.Counter
	// CrashesDetected counts crash detections by any signal.
	CrashesDetected metrics.Counter

	// Per-app instruments, nil without ProxyOptions.Metrics.
	rpcLatency     *metrics.Histogram
	rpcTimeouts    *metrics.Counter
	heartbeatGap   *metrics.Histogram
	respawnRetries *metrics.Counter
	crashBy        [3]*metrics.Counter // indexed by CrashReason
}

// NewProxy creates the proxy, binds its UDP socket, launches a stub via
// factory and waits for the stub to register. name is used until the
// stub's registration supplies the authoritative app name.
func NewProxy(name string, ctx controller.Context, factory StubFactory, opts ProxyOptions) (*Proxy, error) {
	opts.fill()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("appvisor: binding proxy socket: %w", err)
	}
	// Fragmented snapshots/restores arrive in bursts; large socket
	// buffers keep loopback UDP from shedding them.
	_ = conn.SetReadBuffer(8 << 20)
	_ = conn.SetWriteBuffer(8 << 20)
	p := &Proxy{
		name:       name,
		ctx:        ctx,
		opts:       opts,
		conn:       conn,
		factory:    factory,
		waiters:    make(map[uint64]chan *datagram),
		registered: make(chan struct{}),
		done:       make(chan struct{}),
	}
	if reg := opts.Metrics; reg != nil {
		label := fmt.Sprintf("{app=%q}", name)
		reg.RegisterCounter("legosdn_appvisor_events_relayed_total"+label,
			"events round-tripped through the stub", &p.EventsRelayed)
		reg.RegisterCounter("legosdn_appvisor_crashes_detected_total"+label,
			"crash detections by any signal", &p.CrashesDetected)
		p.rpcLatency = reg.Histogram("legosdn_appvisor_rpc_seconds"+label,
			"proxy-to-stub RPC round-trip latency", nil)
		p.rpcTimeouts = reg.Counter("legosdn_appvisor_rpc_timeouts_total"+label,
			"proxy-to-stub RPCs that hit their deadline")
		p.heartbeatGap = reg.Histogram("legosdn_appvisor_heartbeat_gap_seconds"+label,
			"silence between consecutive stub heartbeats", nil)
		p.respawnRetries = reg.Counter("legosdn_appvisor_respawn_retries_total"+label,
			"respawn attempts beyond the first, over all recoveries")
		for _, r := range []CrashReason{CrashReported, CrashHeartbeat, CrashTimeout} {
			p.crashBy[r] = reg.Counter(
				fmt.Sprintf("legosdn_appvisor_crashes_total{app=%q,reason=%q}", name, r.String()),
				"crash detections by signal")
		}
	}
	go p.readLoop()
	if p.opts.HeartbeatTimeout > 0 {
		go p.monitorLoop()
	}
	if err := p.spawn(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

// Addr returns the proxy's UDP address, for externally launched stubs.
func (p *Proxy) Addr() string { return p.conn.LocalAddr().String() }

// Close shuts the proxy and its stub down.
func (p *Proxy) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	close(p.done)
	p.mu.Lock()
	stub := p.stub
	addr := p.stubAddr
	p.mu.Unlock()
	if addr != nil {
		_ = p.sendTo(addr, &datagram{Type: dgShutdown})
	}
	if stub != nil {
		stub.Kill()
	}
	p.conn.Close()
}

// spawn launches a stub and waits for registration.
func (p *Proxy) spawn() error {
	p.mu.Lock()
	p.registered = make(chan struct{})
	reg := p.registered
	p.mu.Unlock()
	stub, err := p.factory(p.Addr())
	if err != nil {
		return fmt.Errorf("appvisor: stub factory: %w", err)
	}
	p.mu.Lock()
	p.stub = stub
	p.mu.Unlock()
	select {
	case <-reg:
		p.lastBeat.Store(time.Now().UnixNano())
		p.stubUp.Store(true)
		return nil
	case <-time.After(p.opts.RegisterTimeout):
		stub.Kill()
		return fmt.Errorf("appvisor: stub for %q never registered", p.name)
	}
}

// Respawn replaces a dead stub with a fresh one. Crash-Pad invokes this
// before restoring a checkpoint. A replacement that itself fails to
// come up is retried on the options' bounded, jittered exponential
// backoff rather than abandoning the app after one try.
func (p *Proxy) Respawn() error {
	p.dropImage()
	p.mu.Lock()
	old := p.stub
	p.mu.Unlock()
	if old != nil {
		old.Kill()
	}
	b := p.opts.RespawnBackoff
	b.fill()
	var err error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if attempt > 0 {
			b.Sleep(b.Delay(attempt - 1))
			p.respawnRetries.Inc()
		}
		if p.closed.Load() {
			return fmt.Errorf("appvisor: proxy for %q closed during respawn", p.name)
		}
		if err = p.spawn(); err == nil {
			p.opts.Flight.Record(flightrec.Record{
				Layer: flightrec.LayerAppVisor, Kind: flightrec.KindStubRespawn,
				App: p.Name(), Note: fmt.Sprintf("attempt %d", attempt+1),
			})
			return nil
		}
	}
	return fmt.Errorf("appvisor: respawn for %q gave up after %d attempts: %w",
		p.name, b.Attempts, err)
}

// StubUp reports whether a live stub is currently attached.
func (p *Proxy) StubUp() bool { return p.stubUp.Load() }

// KillStub hard-stops the attached stub without telling the proxy —
// simulating a SIGKILL'd stub process mid-event. Detection must come
// from the regular crash signals (heartbeat loss or RPC timeout), and
// recovery from Crash-Pad's usual Respawn path. Chaos harnesses use
// this; it is a no-op when no stub is attached.
func (p *Proxy) KillStub() {
	p.mu.Lock()
	stub := p.stub
	p.mu.Unlock()
	if stub != nil {
		stub.Kill()
		p.opts.Flight.Record(flightrec.Record{
			Layer: flightrec.LayerAppVisor, Kind: flightrec.KindStubKill,
			App: p.Name(), Note: "chaos kill",
		})
	}
}

// SetWireFault installs (or, with nil, removes) a datagram fault
// injector on the proxy's event sends (dgEvent/dgEventImage). Safe to
// call while the proxy is live.
func (p *Proxy) SetWireFault(f WireFault) {
	if f == nil {
		p.wfault.Store(nil)
		return
	}
	p.wfault.Store(&f)
}

// LastCrash returns the most recent crash report, or nil.
func (p *Proxy) LastCrash() *CrashReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastCrash
}

// Name implements controller.App.
func (p *Proxy) Name() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.name
}

// Subscriptions implements controller.App, reflecting whatever the stub
// registered.
func (p *Proxy) Subscriptions() []controller.EventKind {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.subs == nil {
		return controller.AllEventKinds()
	}
	return append([]controller.EventKind(nil), p.subs...)
}

// HandleEvent implements controller.App: it round-trips the event
// through the stub, preserving the controller's processing order, and
// surfaces any crash as a *CrashError.
func (p *Proxy) HandleEvent(_ controller.Context, ev controller.Event) error {
	if !p.stubUp.Load() {
		return ErrStubDown
	}
	// The relay span covers encode → UDP → stub handler → ack; the stub
	// opens its own child span from the wire-propagated context.
	if sp := p.opts.Tracer.StartSpan(ev.Trace, "appvisor.relay"); sp != nil {
		sp.Attr("app", p.Name())
		ev.Trace.SpanID = sp.Context().SpanID
		defer sp.End()
	}
	payload, err := encodeEvent(ev)
	if err != nil {
		return err
	}
	p.inFlight.Store(&ev)
	defer p.inFlight.Store(nil)
	// A timeout or socket failure is crash detection signal #1 in §4.1,
	// a crash report names the culprit, an image behind the status is
	// kept for Snapshot.
	d, err := p.rpcToStub(&datagram{Type: p.dropImage(), ID: p.nextID.Add(1), Payload: payload}, p.opts.EventTimeout)
	if err != nil {
		return &CrashError{Report: p.noteCrash(CrashTimeout, err.Error(), "", &ev)}
	}
	if d.Type == dgCrash {
		reason, stack, _ := decodeCrash(d.Payload)
		return &CrashError{Report: p.noteCrash(CrashReported, reason, stack, &ev)}
	}
	status, image, ok := decodeEventDone(d.Payload)
	if !ok {
		return ErrBadDatagram
	}
	if image != nil {
		p.mu.Lock()
		p.image = image
		p.mu.Unlock()
	}
	p.EventsRelayed.Add(1)
	return status
}

// dropImage forgets the held image because the app is about to change,
// and returns the type the next event goes out as: the one that asks for
// the next image if the controller checkpointed since the last event.
func (p *Proxy) dropImage() (eventType uint8) {
	p.mu.Lock()
	defer p.mu.Unlock()
	eventType = dgEvent
	if p.checkpointed {
		eventType = dgEventImage
	}
	p.checkpointed, p.image = false, nil
	return eventType
}

// Snapshot implements controller.Snapshotter: the image the last event's
// reply carried while it is still the app's state (callers must not
// modify it), otherwise an RPC to the stub.
func (p *Proxy) Snapshot() ([]byte, error) {
	p.mu.Lock()
	p.checkpointed = true
	image := p.image
	p.mu.Unlock()
	if image != nil && p.stubUp.Load() {
		return image, nil
	}
	return p.stateRPC("snapshot", &datagram{Type: dgSnapshotReq})
}

// Restore implements controller.Snapshotter by RPC to the stub. Once
// the app has loaded it, state is the app's image and is held like an
// event's (callers must not modify it), unless another RPC overtook the
// restore: the checkpoints right after a recovery make no round trip.
func (p *Proxy) Restore(state []byte) error {
	p.dropImage()
	d := &datagram{Type: dgRestoreReq, Payload: state}
	_, err := p.stateRPC("restore", d)
	p.mu.Lock()
	if err == nil && d.ID == p.nextID.Load() {
		p.image = state
	}
	p.mu.Unlock()
	return err
}

// stateRPC round-trips a snapshot or restore request and returns what
// follows the status in its reply. An app that panicked in the call took
// its stub down: the crash is recorded like a handler's.
func (p *Proxy) stateRPC(op string, d *datagram) ([]byte, error) {
	if !p.stubUp.Load() {
		return nil, ErrStubDown
	}
	d.ID = p.nextID.Add(1)
	d, err := p.rpcToStub(d, p.opts.EventTimeout)
	if err != nil {
		return nil, err
	}
	if d.Type == dgCrash {
		reason, stack, _ := decodeCrash(d.Payload)
		p.noteCrash(CrashReported, reason, stack, nil)
		return nil, fmt.Errorf("appvisor: app crashed during %s: %s", op, reason)
	}
	status, rest, ok := decodeStatus(d.Payload)
	if !ok {
		return nil, ErrBadDatagram
	}
	if status != nil {
		return nil, status
	}
	return rest, nil
}

// noteCrash records a crash, fires the OnCrash hook and marks the stub
// down so subsequent events fail fast.
func (p *Proxy) noteCrash(reason CrashReason, panicValue, stack string, ev *controller.Event) *CrashReport {
	report := &CrashReport{
		App:        p.Name(),
		Reason:     reason,
		PanicValue: panicValue,
		Stack:      stack,
		Detected:   time.Now(),
	}
	if ev != nil {
		report.Event = *ev
		report.HasEvent = true
	}
	p.stubUp.Store(false)
	p.CrashesDetected.Add(1)
	if int(reason) < len(p.crashBy) {
		p.crashBy[reason].Inc()
	}
	rec := flightrec.Record{
		Layer: flightrec.LayerAppVisor, Kind: flightrec.KindCrashDetected,
		App: report.App, Note: reason.String(),
	}
	if ev != nil {
		rec.Trace = ev.Trace.TraceID
		rec.EvSeq = ev.Seq
		rec.DPID = ev.DPID
	}
	p.opts.Flight.Record(rec)
	p.mu.Lock()
	p.lastCrash = report
	p.checkpointed, p.image = false, nil
	stub := p.stub
	p.mu.Unlock()
	if stub != nil {
		stub.Kill() // make death certain before a respawn
	}
	if p.opts.OnCrash != nil {
		p.opts.OnCrash(report)
	}
	return report
}

// monitorLoop watches heartbeats; silence beyond HeartbeatTimeout is
// crash detection signal #2.
func (p *Proxy) monitorLoop() {
	t := time.NewTicker(p.opts.HeartbeatTimeout / 4)
	defer t.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-t.C:
			if !p.stubUp.Load() {
				continue
			}
			last := p.lastBeat.Load()
			if last == 0 {
				continue
			}
			if time.Since(time.Unix(0, last)) > p.opts.HeartbeatTimeout {
				p.noteCrash(CrashHeartbeat, "heartbeat lost", "", p.inFlight.Load())
				p.failWaiters()
			}
		}
	}
}

// failWaiters unblocks every pending RPC after a detected death.
func (p *Proxy) failWaiters() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, w := range p.waiters {
		close(w)
		delete(p.waiters, id)
	}
}

func (p *Proxy) sendTo(addr *net.UDPAddr, d *datagram) error {
	if fp := p.wfault.Load(); fp != nil && (d.Type == dgEvent || d.Type == dgEventImage) {
		verdict := (*fp)("proxy", p.Name(), d.Type)
		if verdict != (WireVerdict{}) && d.Type == dgEventImage {
			// A faulted send may reach the app twice or late; its reply's
			// image would not be the app's state.
			d.Type = dgEvent
		}
		if handled, err := applyWireFault(verdict, d, p.conn, addr); handled {
			return err
		}
	}
	return writeDatagram(p.conn, addr, d)
}

// rpcToStub sends one datagram and waits for its completion (matched by
// ID) or a crash report.
func (p *Proxy) rpcToStub(d *datagram, timeout time.Duration) (*datagram, error) {
	p.mu.Lock()
	addr := p.stubAddr
	if addr == nil {
		p.mu.Unlock()
		return nil, ErrStubDown
	}
	w := make(chan *datagram, 1)
	p.waiters[d.ID] = w
	p.mu.Unlock()

	cleanup := func() {
		p.mu.Lock()
		delete(p.waiters, d.ID)
		p.mu.Unlock()
	}
	start := time.Now()
	if err := p.sendTo(addr, d); err != nil {
		cleanup()
		return nil, err
	}
	select {
	case reply, ok := <-w:
		if !ok {
			return nil, fmt.Errorf("appvisor: stub died mid-call")
		}
		p.rpcLatency.ObserveSince(start)
		return reply, nil
	case <-time.After(timeout):
		cleanup()
		p.rpcTimeouts.Inc()
		return nil, fmt.Errorf("appvisor: stub call timed out after %v", timeout)
	case <-p.done:
		cleanup()
		return nil, fmt.Errorf("appvisor: proxy closed")
	}
}

func (p *Proxy) readLoop() {
	buf := make([]byte, maxDatagram)
	reasm := newReassembler()
	for {
		n, raddr, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		// Zero-copy: dv.Payload aliases buf. Branches that retain the
		// datagram past this iteration (waiter hand-offs, goroutines)
		// detach() first; the reassembler copies fragment data itself.
		dv, err := parseDatagramView(buf[:n])
		if err != nil {
			continue
		}
		d, err := reasm.accept(&dv)
		if err != nil || d == nil {
			continue
		}
		switch d.Type {
		case dgRegister:
			name, subs, err := decodeRegister(d.Payload)
			if err != nil {
				continue
			}
			p.mu.Lock()
			// While a stub is live, only it may re-register: a stray
			// datagram must not hijack the stub address. A dead stub's
			// replacement legitimately arrives from a new address.
			if p.stubUp.Load() && p.stubAddr != nil && p.stubAddr.String() != raddr.String() {
				p.mu.Unlock()
				continue
			}
			p.name = name
			p.subs = subs
			p.stubAddr = raddr
			reg := p.registered
			p.mu.Unlock()
			p.lastBeat.Store(time.Now().UnixNano())
			_ = p.sendTo(raddr, &datagram{Type: dgRegisterAck})
			select {
			case <-reg:
			default:
				close(reg)
			}
		case dgHeartbeat:
			now := time.Now()
			if last := p.lastBeat.Load(); last != 0 && p.heartbeatGap != nil {
				p.heartbeatGap.ObserveDuration(now.Sub(time.Unix(0, last)))
			}
			p.lastBeat.Store(now.UnixNano())
		case dgEventDone, dgSnapshotReply, dgRestoreDone:
			d.detach() // handed to a waiter, outlives buf
			p.completeWaiter(d)
		case dgCrash:
			// A crash aborts whatever RPC is in flight; if none is, the
			// report stands alone (e.g. crash in a background goroutine
			// of the app).
			d.detach()
			if !p.completeAnyWaiter(d) {
				reason, stack, _ := decodeCrash(d.Payload)
				p.noteCrash(CrashReported, reason, stack, p.inFlight.Load())
			}
		case dgRequest:
			d.detach()
			go p.serveRequest(raddr, d)
		}
	}
}

func (p *Proxy) completeWaiter(d *datagram) {
	p.mu.Lock()
	w := p.waiters[d.ID]
	delete(p.waiters, d.ID)
	p.mu.Unlock()
	if w != nil {
		w <- d
	}
}

// completeAnyWaiter delivers a crash datagram to some pending waiter
// (there is at most one event in flight, which is the one that matters).
func (p *Proxy) completeAnyWaiter(d *datagram) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, w := range p.waiters {
		delete(p.waiters, id)
		w <- d
		return true
	}
	return false
}

// serveRequest executes one Context call on the app's behalf.
func (p *Proxy) serveRequest(raddr *net.UDPAddr, d *datagram) {
	op, dpid, msg, err := decodeRequest(d.Payload)
	if err != nil {
		_ = p.sendTo(raddr, &datagram{Type: dgResponse, ID: d.ID, Payload: statusPayload(err)})
		return
	}
	var payload []byte
	switch op {
	case opSendMessage:
		payload = statusPayload(p.ctx.SendMessage(dpid, msg))
	case opStats:
		req, ok := msg.(*openflow.StatsRequest)
		if !ok {
			payload = statusPayload(fmt.Errorf("appvisor: stats op without request"))
			break
		}
		reply, err := p.ctx.RequestStats(dpid, req)
		if err != nil {
			payload = statusPayload(err)
			break
		}
		raw, err := openflow.Encode(reply)
		if err != nil {
			payload = statusPayload(err)
			break
		}
		payload = append(statusPayload(nil), raw...)
	case opBarrier:
		payload = statusPayload(p.ctx.Barrier(dpid))
	case opSwitches:
		payload, err = encodeSwitches(p.ctx.Switches())
		if err != nil {
			payload = statusPayload(err)
		}
	case opPorts:
		payload = encodePorts(p.ctx.Ports(dpid))
	case opTopology:
		payload, err = encodeTopology(p.ctx.Topology())
		if err != nil {
			payload = statusPayload(err)
		}
	default:
		payload = statusPayload(fmt.Errorf("appvisor: unknown op %d", op))
	}
	_ = p.sendTo(raddr, &datagram{Type: dgResponse, ID: d.ID, Payload: payload})
}
