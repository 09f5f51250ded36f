package controller

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/openflow"
)

// swHandle is the controller-side state for one connected switch.
type swHandle struct {
	c        *Controller
	conn     *openflow.Conn
	dpid     atomic.Uint64
	ports    map[uint16]openflow.PhyPort
	pending  map[uint32]chan openflow.Message
	closedCh chan struct{}
	closing  sync.Once
}

// AttachSwitchConn performs the active (controller-side) handshake on
// conn and starts the read pump. It blocks until the switch's
// FeaturesReply arrives or the request times out.
func (c *Controller) AttachSwitchConn(conn *openflow.Conn) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	h := &swHandle{
		c:        c,
		conn:     conn,
		ports:    make(map[uint16]openflow.PhyPort),
		pending:  make(map[uint32]chan openflow.Message),
		closedCh: make(chan struct{}),
	}
	xid := conn.NextXid()
	ready := make(chan openflow.Message, 1)
	h.pending[xid] = ready
	// Start the reader before writing: over synchronous transports
	// (net.Pipe) both ends write their Hello first, so each side must
	// already be draining its peer or the two writes deadlock.
	go h.pump()
	if err := conn.WriteMessage(&openflow.Hello{}); err != nil {
		return fmt.Errorf("controller: hello: %w", err)
	}
	if err := conn.WriteMessage(&openflow.FeaturesRequest{BaseMsg: openflow.BaseMsg{Xid: xid}}); err != nil {
		return fmt.Errorf("controller: features request: %w", err)
	}
	select {
	case msg := <-ready:
		fr, ok := msg.(*openflow.FeaturesReply)
		if !ok {
			conn.Close()
			return fmt.Errorf("controller: handshake got %v, want FEATURES_REPLY", msg.Type())
		}
		h.dpid.Store(fr.DatapathID)
		for _, p := range fr.Ports {
			h.ports[p.PortNo] = p
		}
		c.mu.Lock()
		if old := c.switches[h.dpid.Load()]; old != nil {
			old.close()
		}
		c.switches[h.dpid.Load()] = h
		c.mu.Unlock()
		if c.cfg.EchoInterval > 0 {
			go h.echoLoop(c.cfg.EchoInterval)
		}
		_ = c.Inject(Event{Kind: EventSwitchUp, DPID: h.dpid.Load(), Message: fr})
		return nil
	case <-h.closedCh:
		return fmt.Errorf("controller: switch closed during handshake")
	case <-time.After(c.cfg.RequestTimeout):
		conn.Close()
		return fmt.Errorf("controller: handshake timeout")
	}
}

// echoLoop probes the switch with EchoRequests; a missed reply tears
// the handle down, converting silent peer death into a SwitchDown
// event. Runs until the handle closes. Every exit path deregisters the
// in-flight waiter itself — relying on the pump's onDisconnect sweep
// would leave a dead entry behind whenever this handle has already been
// superseded in c.switches, and a long-lived controller would
// accumulate one per reconnect.
func (h *swHandle) echoLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	// One timer reused across probes instead of a time.After per
	// iteration, which would allocate a garbage timer every interval for
	// the lifetime of the connection.
	wait := time.NewTimer(interval)
	wait.Stop()
	defer wait.Stop()
	for {
		select {
		case <-h.closedCh:
			return
		case <-t.C:
			xid := h.conn.NextXid()
			waiter := make(chan openflow.Message, 1)
			h.c.mu.Lock()
			h.pending[xid] = waiter
			h.c.mu.Unlock()
			unregister := func() {
				h.c.mu.Lock()
				delete(h.pending, xid)
				h.c.mu.Unlock()
			}
			err := h.conn.WriteMessage(&openflow.EchoRequest{
				BaseMsg: openflow.BaseMsg{Xid: xid}, Data: []byte("lv"),
			})
			if err != nil {
				unregister()
				h.close()
				return
			}
			wait.Reset(interval)
			select {
			case _, ok := <-waiter:
				stopTimer(wait)
				if !ok {
					return // handle closed under us; closer already swept pending
				}
			case <-wait.C:
				unregister()
				h.c.logf("controller: switch %d missed echo; declaring it dead", h.dpid.Load())
				h.close()
				return
			case <-h.closedCh:
				stopTimer(wait)
				unregister()
				return
			}
		}
	}
}

// stopTimer halts a reusable timer between arms, discarding (without
// blocking) a tick that fired before Stop won the race. Safe under both
// pre- and post-1.23 timer channel semantics.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// isReply reports whether a message type answers a controller request.
func isReply(t openflow.Type) bool {
	switch t {
	case openflow.TypeFeaturesReply, openflow.TypeStatsReply, openflow.TypeBarrierReply,
		openflow.TypeGetConfigReply, openflow.TypeEchoReply, openflow.TypeError:
		return true
	}
	return false
}

// close tears the handle down, failing all pending waiters. It is
// called from the pump's onDisconnect, the echo loop, a re-attach and
// Controller.Stop, any two of which may race.
func (h *swHandle) close() {
	h.closing.Do(func() {
		close(h.closedCh)
		h.conn.Close()
	})
}

// pump owns all reads from the switch connection, translating
// asynchronous messages into controller events and completing
// synchronous waiters by xid.
func (h *swHandle) pump() {
	defer h.onDisconnect()
	for {
		msg, err := h.conn.ReadMessage()
		if err != nil {
			return
		}
		// Synchronous completions first. Only reply-class messages can
		// complete a waiter: switch-initiated messages carry xids from
		// the switch's own counter, which may collide with ours.
		if isReply(msg.Type()) {
			h.c.mu.Lock()
			waiter := h.pending[msg.GetXid()]
			if waiter != nil {
				// A multipart stats reply keeps its waiter registered
				// until the final (no-More) part arrives.
				if sr, ok := msg.(*openflow.StatsReply); !ok || sr.Flags&openflow.StatsReplyFlagMore == 0 {
					delete(h.pending, msg.GetXid())
				}
			}
			h.c.mu.Unlock()
			if waiter != nil {
				waiter <- msg
				continue
			}
		}

		switch m := msg.(type) {
		case *openflow.Hello:
			// Peer's handshake hello; nothing to do.
		case *openflow.EchoRequest:
			_ = h.conn.WriteMessage(&openflow.EchoReply{BaseMsg: openflow.BaseMsg{Xid: m.Xid}, Data: m.Data})
		case *openflow.PacketIn:
			if h.c.handleLLDP(h, m) {
				continue
			}
			_ = h.c.Inject(Event{Kind: EventPacketIn, DPID: h.dpid.Load(), Message: m})
		case *openflow.FlowRemoved:
			_ = h.c.Inject(Event{Kind: EventFlowRemoved, DPID: h.dpid.Load(), Message: m})
		case *openflow.PortStatus:
			h.c.mu.Lock()
			switch m.Reason {
			case openflow.PortReasonDelete:
				delete(h.ports, m.Desc.PortNo)
			default:
				h.ports[m.Desc.PortNo] = m.Desc
			}
			// A dead port invalidates any discovered adjacency through
			// it; rediscovery re-adds the link if it comes back.
			if m.Reason == openflow.PortReasonDelete || m.Desc.LinkDown() ||
				m.Desc.Config&openflow.PortConfigDown != 0 {
				dpid := h.dpid.Load()
				for l := range h.c.links {
					if (l.SrcDPID == dpid && l.SrcPort == m.Desc.PortNo) ||
						(l.DstDPID == dpid && l.DstPort == m.Desc.PortNo) {
						delete(h.c.links, l)
					}
				}
			}
			h.c.mu.Unlock()
			_ = h.c.Inject(Event{Kind: EventPortStatus, DPID: h.dpid.Load(), Message: m})
		case *openflow.ErrorMsg:
			_ = h.c.Inject(Event{Kind: EventErrorMsg, DPID: h.dpid.Load(), Message: m})
		default:
			// Unsolicited replies (stats after timeout, barriers) are dropped.
		}
	}
}

// onDisconnect deregisters the switch and emits SwitchDown.
func (h *swHandle) onDisconnect() {
	h.close()
	h.c.mu.Lock()
	registered := h.dpid.Load() != 0 && h.c.switches[h.dpid.Load()] == h
	if registered {
		ports := make([]openflow.PhyPort, 0, len(h.ports))
		for _, p := range h.ports {
			ports = append(ports, p)
		}
		h.c.lastPorts[h.dpid.Load()] = ports
		delete(h.c.switches, h.dpid.Load())
		// Forget links touching this switch.
		for l := range h.c.links {
			if l.SrcDPID == h.dpid.Load() || l.DstDPID == h.dpid.Load() {
				delete(h.c.links, l)
			}
		}
	}
	// Fail all pending synchronous waiters.
	for xid, w := range h.pending {
		close(w)
		delete(h.pending, xid)
	}
	h.c.mu.Unlock()
	if registered && !h.c.crashed.Load() {
		_ = h.c.Inject(Event{Kind: EventSwitchDown, DPID: h.dpid.Load()})
	}
}

func (h *swHandle) portList() []openflow.PhyPort {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	out := make([]openflow.PhyPort, 0, len(h.ports))
	for _, p := range h.ports {
		out = append(out, p)
	}
	return out
}

func (c *Controller) handle(dpid uint64) (*swHandle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.switches[dpid]
	if h == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSwitch, dpid)
	}
	return h, nil
}

// SendMessage implements Context. The message traverses the outbound
// hook chain (NetLog, delay buffers) before hitting the wire.
func (c *Controller) SendMessage(dpid uint64, msg openflow.Message) error {
	if c.crashed.Load() {
		return ErrCrashed
	}
	c.mu.Lock()
	hooks := append([]OutboundHook(nil), c.hooks...)
	c.mu.Unlock()
	for _, hook := range hooks {
		out, err := hook(dpid, msg)
		if err != nil {
			return err
		}
		if out == nil {
			return nil // suppressed by the hook
		}
		msg = out
	}
	h, err := c.handle(dpid)
	if err != nil {
		return err
	}
	if c.sendLatency != nil {
		defer c.sendLatency.ObserveSince(time.Now())
	}
	return h.conn.WriteMessage(msg)
}

// SendFlowMod implements Context.
func (c *Controller) SendFlowMod(dpid uint64, fm *openflow.FlowMod) error {
	return c.SendMessage(dpid, fm)
}

// SendPacketOut implements Context.
func (c *Controller) SendPacketOut(dpid uint64, po *openflow.PacketOut) error {
	return c.SendMessage(dpid, po)
}

// request performs one synchronous xid-matched exchange.
func (c *Controller) request(dpid uint64, msg openflow.Message) (openflow.Message, error) {
	reply, _, err := c.requestWithWaiter(dpid, msg)
	return reply, err
}

// requestWithWaiter performs the exchange and also returns the waiter
// channel, which stays registered (and may hold further parts) when the
// reply is a multipart stats part flagged More.
func (c *Controller) requestWithWaiter(dpid uint64, msg openflow.Message) (openflow.Message, chan openflow.Message, error) {
	h, err := c.handle(dpid)
	if err != nil {
		return nil, nil, err
	}
	xid := h.conn.NextXid()
	msg.SetXid(xid)
	// Capacity covers bursts of multipart stats parts without stalling
	// the connection's read pump.
	waiter := make(chan openflow.Message, 16)
	c.mu.Lock()
	h.pending[xid] = waiter
	c.mu.Unlock()
	cleanup := func() {
		c.mu.Lock()
		delete(h.pending, xid)
		c.mu.Unlock()
	}
	// Synchronous exchanges bypass outbound hooks: they are reads (stats,
	// barriers), not state-altering writes. NetLog's counter-cache
	// rewrites the reply instead, via RewriteStatsReply.
	if err := h.conn.WriteMessage(msg); err != nil {
		cleanup()
		return nil, nil, err
	}
	select {
	case reply, ok := <-waiter:
		if !ok {
			return nil, nil, fmt.Errorf("controller: switch %d disconnected mid-request", dpid)
		}
		return reply, waiter, nil
	case <-time.After(c.cfg.RequestTimeout):
		cleanup()
		return nil, nil, fmt.Errorf("controller: request to switch %d timed out", dpid)
	}
}

// RequestStats implements Context. Multipart replies (parts flagged
// with StatsReplyFlagMore) are collected and merged into one reply.
func (c *Controller) RequestStats(dpid uint64, req *openflow.StatsRequest) (*openflow.StatsReply, error) {
	reply, waiter, err := c.requestWithWaiter(dpid, req)
	if err != nil {
		return nil, err
	}
	sr, ok := reply.(*openflow.StatsReply)
	if !ok {
		return nil, fmt.Errorf("controller: stats request answered by %v", reply.Type())
	}
	// Drain the remaining parts; the final (no-More) part may already
	// sit in the waiter channel even after the pump deregistered it.
	for sr.Flags&openflow.StatsReplyFlagMore != 0 {
		more, err := c.awaitMore(dpid, waiter)
		if err != nil {
			return nil, err
		}
		sr.Flows = append(sr.Flows, more.Flows...)
		sr.Ports = append(sr.Ports, more.Ports...)
		sr.Raw = append(sr.Raw, more.Raw...)
		sr.Flags = more.Flags
	}
	c.mu.Lock()
	rewriters := append([]StatsRewriter(nil), c.statsRewriters...)
	c.mu.Unlock()
	for _, rw := range rewriters {
		rw(dpid, sr)
	}
	return sr, nil
}

// awaitMore receives one additional multipart stats part from the
// request's waiter channel.
func (c *Controller) awaitMore(dpid uint64, waiter chan openflow.Message) (*openflow.StatsReply, error) {
	select {
	case reply, ok := <-waiter:
		if !ok {
			return nil, fmt.Errorf("controller: switch %d disconnected mid-multipart", dpid)
		}
		sr, ok := reply.(*openflow.StatsReply)
		if !ok {
			return nil, fmt.Errorf("controller: multipart interrupted by %v", reply.Type())
		}
		return sr, nil
	case <-time.After(c.cfg.RequestTimeout):
		return nil, fmt.Errorf("controller: multipart stats from %d timed out", dpid)
	}
}

// Barrier implements Context.
func (c *Controller) Barrier(dpid uint64) error {
	reply, err := c.request(dpid, &openflow.BarrierRequest{})
	if err != nil {
		return err
	}
	if reply.Type() != openflow.TypeBarrierReply {
		return fmt.Errorf("controller: barrier answered by %v", reply.Type())
	}
	return nil
}
