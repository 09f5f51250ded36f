package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"legosdn/internal/openflow"
)

// MaxHops bounds dataplane forwarding depth; frames exceeding it are
// dropped and counted, which is how the simulator surfaces forwarding
// loops created by byzantine SDN-Apps.
const MaxHops = 64

// defaultMissSendLen is the PacketIn truncation length before the
// controller configures one.
const defaultMissSendLen = 128

// Port is one switch port and its live state.
type Port struct {
	Desc  openflow.PhyPort
	Stats openflow.PortStatsEntry
}

// bufferedPacket is a frame parked in the switch buffer awaiting a
// controller decision (referenced by PacketIn/PacketOut buffer ids).
type bufferedPacket struct {
	frame  *Frame
	inPort uint16
}

// Switch simulates one OpenFlow 1.0 switch: a flow table, ports, a
// packet buffer and a control channel. All exported methods are safe
// for concurrent use.
type Switch struct {
	DPID uint64

	net   *Network
	clock Clock

	mu          sync.Mutex
	ports       map[uint16]*Port
	buffers     map[uint32]*bufferedPacket
	nextBuf     uint32
	missSendLen uint16
	conn        *openflow.Conn   // master: receives asynchronous messages
	slaves      []*openflow.Conn // warm standbys: request/reply only
	down        bool

	table *FlowTable

	// Telemetry counters (atomic: read by benchmarks while forwarding).
	PacketIns      atomic.Uint64
	FlowModsRx     atomic.Uint64
	LoopDrops      atomic.Uint64
	TableMissDrops atomic.Uint64
	Delivered      atomic.Uint64
}

func newSwitch(n *Network, dpid uint64, clock Clock) *Switch {
	return &Switch{
		DPID:        dpid,
		net:         n,
		clock:       clock,
		ports:       make(map[uint16]*Port),
		buffers:     make(map[uint32]*bufferedPacket),
		missSendLen: defaultMissSendLen,
		table:       NewFlowTable(clock),
	}
}

// Table exposes the switch's flow table (used by invariant checkers and
// tests; the control plane mutates it only through OpenFlow messages).
func (s *Switch) Table() *FlowTable { return s.table }

// addPort creates port number p with a MAC derived from the DPID.
func (s *Switch) addPort(p uint16) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.ports[p]; ok {
		return
	}
	hw := openflow.EthAddr{0x02, byte(s.DPID >> 24), byte(s.DPID >> 16), byte(s.DPID >> 8), byte(s.DPID), byte(p)}
	s.ports[p] = &Port{
		Desc: openflow.PhyPort{
			PortNo: p,
			HWAddr: hw,
			Name:   fmt.Sprintf("s%d-eth%d", s.DPID, p),
			Curr:   1,
		},
		Stats: openflow.PortStatsEntry{PortNo: p},
	}
}

// PortNumbers lists the switch's port numbers in unspecified order.
func (s *Switch) PortNumbers() []uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint16, 0, len(s.ports))
	for p := range s.ports {
		out = append(out, p)
	}
	return out
}

// Down reports whether the switch has been failed by the scenario.
func (s *Switch) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Attach binds the switch to a master controller connection and starts
// the control pump, which owns all reads from the connection. The
// switch sends its Hello immediately, as the protocol requires of both
// ends. Asynchronous messages (PacketIn, FlowRemoved, PortStatus) go
// only to the master; see AttachSlave for warm standbys.
func (s *Switch) Attach(conn *openflow.Conn) error {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return fmt.Errorf("netsim: switch %d is down", s.DPID)
	}
	s.conn = conn
	s.mu.Unlock()
	s.startPump(conn)
	return nil
}

// AttachSlave binds an additional controller connection in the slave
// role, mirroring OpenFlow's master/slave controller roles: the switch
// answers the slave's requests (handshake, barriers, stats) but sends
// it no asynchronous messages and accepts its state-changing commands
// only after PromoteSlave. Replica followers hold slave connections so
// failover needs no new TCP/handshake work.
func (s *Switch) AttachSlave(conn *openflow.Conn) error {
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return fmt.Errorf("netsim: switch %d is down", s.DPID)
	}
	s.slaves = append(s.slaves, conn)
	s.mu.Unlock()
	s.startPump(conn)
	return nil
}

// PromoteSlave moves a registered slave connection into the master
// role. The displaced master, if any, is demoted to slave — its pump
// keeps running and drops the conn when it errors (a dead leader's
// conns are typically already closed). Returns an error if conn was
// never attached as a slave.
func (s *Switch) PromoteSlave(conn *openflow.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := -1
	for i, c := range s.slaves {
		if c == conn {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("netsim: switch %d: promoting a connection that is not an attached slave", s.DPID)
	}
	s.slaves = append(s.slaves[:idx], s.slaves[idx+1:]...)
	if s.conn != nil {
		s.slaves = append(s.slaves, s.conn)
	}
	s.conn = conn
	return nil
}

// startPump sends the switch's Hello and runs the read pump. The Hello
// is sent from the pump goroutine: over synchronous transports
// (net.Pipe) a write blocks until the peer reads, and the peer may
// attach its reader after Attach/AttachSlave returns.
func (s *Switch) startPump(conn *openflow.Conn) {
	go func() {
		defer s.dropConn(conn)
		if err := conn.WriteMessage(&openflow.Hello{}); err != nil {
			return
		}
		s.pump(conn)
	}()
}

// dropConn forgets a connection whose pump exited, so a dead master
// stops eating asynchronous messages and a dead slave leaves the
// standby list.
func (s *Switch) dropConn(conn *openflow.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == conn {
		s.conn = nil
		return
	}
	for i, c := range s.slaves {
		if c == conn {
			s.slaves = append(s.slaves[:i], s.slaves[i+1:]...)
			return
		}
	}
}

// Detach severs all control channels — master and slaves (used for
// controller-failure scenarios). The dataplane keeps forwarding on
// installed rules.
func (s *Switch) Detach() {
	s.mu.Lock()
	conn := s.conn
	slaves := s.slaves
	s.conn = nil
	s.slaves = nil
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	for _, c := range slaves {
		c.Close()
	}
}

// SlaveCount reports the number of attached standby connections.
func (s *Switch) SlaveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slaves)
}

func (s *Switch) currentConn() *openflow.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

// send writes an asynchronous message to the controller, dropping it
// silently when no controller is attached (as a real switch would).
func (s *Switch) send(m openflow.Message) {
	if conn := s.currentConn(); conn != nil {
		_ = conn.WriteMessage(m)
	}
}

func (s *Switch) pump(conn *openflow.Conn) {
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		var replies []openflow.Message
		if stateChanging(msg) && !s.isMaster(conn) {
			// Slave fencing: a standby (or a deposed master demoted by
			// PromoteSlave) cannot mutate the dataplane. This is what
			// keeps a partitioned old leader from issuing writes after
			// a new leader took over.
			replies = []openflow.Message{&openflow.ErrorMsg{
				BaseMsg: openflow.BaseMsg{Xid: msg.GetXid()},
				ErrType: openflow.ErrTypeBadRequest,
				Code:    openflow.BadRequestEperm,
			}}
		} else {
			replies = s.HandleMessage(msg)
		}
		for _, reply := range replies {
			if err := conn.WriteMessage(reply); err != nil {
				return
			}
		}
	}
}

// stateChanging reports whether msg mutates switch state; only the
// master connection may send these.
func stateChanging(msg openflow.Message) bool {
	switch msg.(type) {
	case *openflow.FlowMod, *openflow.PacketOut, *openflow.PortMod, *openflow.SetConfig:
		return true
	}
	return false
}

func (s *Switch) isMaster(conn *openflow.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn == conn
}

// HandleMessage executes one controller-to-switch message and returns
// the direct replies. Asynchronous messages triggered as side effects
// (FlowRemoved, PacketIn from PacketOut flooding) go out via send.
func (s *Switch) HandleMessage(msg openflow.Message) []openflow.Message {
	switch m := msg.(type) {
	case *openflow.Hello:
		return nil
	case *openflow.EchoRequest:
		return []openflow.Message{&openflow.EchoReply{BaseMsg: openflow.BaseMsg{Xid: m.Xid}, Data: m.Data}}
	case *openflow.FeaturesRequest:
		return []openflow.Message{s.featuresReply(m.Xid)}
	case *openflow.GetConfigRequest:
		s.mu.Lock()
		msl := s.missSendLen
		s.mu.Unlock()
		return []openflow.Message{&openflow.GetConfigReply{BaseMsg: openflow.BaseMsg{Xid: m.Xid}, MissSendLen: msl}}
	case *openflow.SetConfig:
		s.mu.Lock()
		s.missSendLen = m.MissSendLen
		s.mu.Unlock()
		return nil
	case *openflow.FlowMod:
		return s.handleFlowMod(m)
	case *openflow.PacketOut:
		return s.handlePacketOut(m)
	case *openflow.StatsRequest:
		return splitStatsReply(s.handleStatsRequest(m))
	case *openflow.BarrierRequest:
		return []openflow.Message{&openflow.BarrierReply{BaseMsg: openflow.BaseMsg{Xid: m.Xid}}}
	case *openflow.PortMod:
		return s.handlePortMod(m)
	case *openflow.EchoReply, *openflow.Vendor:
		return nil
	default:
		return []openflow.Message{&openflow.ErrorMsg{
			BaseMsg: openflow.BaseMsg{Xid: msg.GetXid()},
			ErrType: openflow.ErrTypeBadRequest,
		}}
	}
}

func (s *Switch) featuresReply(xid uint32) *openflow.FeaturesReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	fr := &openflow.FeaturesReply{
		BaseMsg:      openflow.BaseMsg{Xid: xid},
		DatapathID:   s.DPID,
		NBuffers:     256,
		NTables:      1,
		Capabilities: openflow.CapFlowStats | openflow.CapTableStats | openflow.CapPortStats,
		Actions:      1<<12 - 1,
	}
	for _, p := range s.ports {
		fr.Ports = append(fr.Ports, p.Desc)
	}
	return fr
}

func (s *Switch) handleFlowMod(m *openflow.FlowMod) []openflow.Message {
	s.FlowModsRx.Add(1)
	removed, err := s.table.Apply(m)
	if err != nil {
		code := openflow.FlowModFailedBadCommand
		switch err {
		case ErrTableFull:
			code = openflow.FlowModFailedAllTablesFull
		case ErrOverlap:
			code = openflow.FlowModFailedOverlap
		}
		data, _ := openflow.Encode(m)
		if len(data) > 64 {
			data = data[:64]
		}
		return []openflow.Message{&openflow.ErrorMsg{
			BaseMsg: openflow.BaseMsg{Xid: m.Xid},
			ErrType: openflow.ErrTypeFlowModFailed,
			Code:    code,
			Data:    data,
		}}
	}
	s.emitFlowRemoved(removed)
	// A FlowMod referencing a buffered packet also releases that packet
	// through the new actions.
	if m.BufferID != openflow.BufferIDNone &&
		(m.Command == openflow.FlowModAdd || m.Command == openflow.FlowModModify || m.Command == openflow.FlowModModifyStrict) {
		if bp := s.takeBuffer(m.BufferID); bp != nil {
			s.execActions(bp.frame, bp.inPort, m.Actions, 0)
		}
	}
	return nil
}

func (s *Switch) handlePacketOut(m *openflow.PacketOut) []openflow.Message {
	var frame *Frame
	inPort := m.InPort
	if m.BufferID != openflow.BufferIDNone {
		bp := s.takeBuffer(m.BufferID)
		if bp == nil {
			return []openflow.Message{&openflow.ErrorMsg{
				BaseMsg: openflow.BaseMsg{Xid: m.Xid},
				ErrType: openflow.ErrTypeBadRequest,
			}}
		}
		frame = bp.frame
		if inPort == openflow.PortNone {
			inPort = bp.inPort
		}
	} else {
		f, err := ParseFrame(m.Data)
		if err != nil {
			return []openflow.Message{&openflow.ErrorMsg{
				BaseMsg: openflow.BaseMsg{Xid: m.Xid},
				ErrType: openflow.ErrTypeBadRequest,
			}}
		}
		frame = f
	}
	s.execActions(frame, inPort, m.Actions, 0)
	return nil
}

func (s *Switch) handlePortMod(m *openflow.PortMod) []openflow.Message {
	s.mu.Lock()
	p, ok := s.ports[m.PortNo]
	if !ok {
		s.mu.Unlock()
		return []openflow.Message{&openflow.ErrorMsg{
			BaseMsg: openflow.BaseMsg{Xid: m.Xid},
			ErrType: openflow.ErrTypePortModFailed,
		}}
	}
	p.Desc.Config = (p.Desc.Config &^ m.Mask) | (m.Config & m.Mask)
	desc := p.Desc
	s.mu.Unlock()
	s.send(&openflow.PortStatus{Reason: openflow.PortReasonModify, Desc: desc})
	return nil
}

func (s *Switch) handleStatsRequest(m *openflow.StatsRequest) *openflow.StatsReply {
	reply := &openflow.StatsReply{BaseMsg: openflow.BaseMsg{Xid: m.Xid}, StatsType: m.StatsType}
	now := s.clock.Now()
	switch m.StatsType {
	case openflow.StatsTypeDesc:
		reply.Raw = []byte("legosdn netsim switch")
	case openflow.StatsTypeFlow:
		req := m.Flow
		if req == nil {
			req = &openflow.FlowStatsRequest{Match: openflow.MatchAll(), OutPort: openflow.PortNone}
		}
		for _, e := range s.table.Select(&req.Match, 0, false, req.OutPort) {
			d := now.Sub(e.Installed)
			reply.Flows = append(reply.Flows, openflow.FlowStatsEntry{
				TableID:      0,
				Match:        e.Match,
				DurationSec:  uint32(d.Seconds()),
				DurationNsec: uint32(d.Nanoseconds() % 1e9),
				Priority:     e.Priority,
				IdleTimeout:  e.IdleTimeout,
				HardTimeout:  e.HardTimeout,
				Cookie:       e.Cookie,
				PacketCount:  e.PacketCount,
				ByteCount:    e.ByteCount,
				Actions:      e.Actions,
			})
		}
	case openflow.StatsTypeAggregate:
		req := m.Flow
		if req == nil {
			req = &openflow.FlowStatsRequest{Match: openflow.MatchAll(), OutPort: openflow.PortNone}
		}
		agg := &openflow.AggregateStats{}
		for _, e := range s.table.Select(&req.Match, 0, false, req.OutPort) {
			agg.PacketCount += e.PacketCount
			agg.ByteCount += e.ByteCount
			agg.FlowCount++
		}
		reply.Aggregate = agg
	case openflow.StatsTypePort:
		s.mu.Lock()
		want := openflow.PortNone
		if m.Port != nil {
			want = m.Port.PortNo
		}
		for _, p := range s.ports {
			if want == openflow.PortNone || p.Desc.PortNo == want {
				reply.Ports = append(reply.Ports, p.Stats)
			}
		}
		s.mu.Unlock()
	case openflow.StatsTypeTable:
		reply.Raw = []byte(fmt.Sprintf("table0 entries=%d", s.table.Len()))
	}
	return reply
}

// statsPartBudget bounds one multipart stats part's body, safely under
// the 16-bit OpenFlow length field.
const statsPartBudget = 56 * 1024

// splitStatsReply breaks an oversized StatsReply into OpenFlow
// multipart parts (StatsReplyFlagMore on every part but the last), the
// behavior real switches exhibit for large flow tables. Small replies
// pass through as a single message.
func splitStatsReply(reply *openflow.StatsReply) []openflow.Message {
	switch reply.StatsType {
	case openflow.StatsTypeFlow:
		if len(reply.Flows) == 0 {
			return []openflow.Message{reply}
		}
		var parts []openflow.Message
		cur := &openflow.StatsReply{BaseMsg: reply.BaseMsg, StatsType: reply.StatsType}
		size := 0
		for _, f := range reply.Flows {
			n := f.EncodedLen()
			if size+n > statsPartBudget && len(cur.Flows) > 0 {
				parts = append(parts, cur)
				cur = &openflow.StatsReply{BaseMsg: reply.BaseMsg, StatsType: reply.StatsType}
				size = 0
			}
			cur.Flows = append(cur.Flows, f)
			size += n
		}
		parts = append(parts, cur)
		for i := 0; i < len(parts)-1; i++ {
			parts[i].(*openflow.StatsReply).Flags |= openflow.StatsReplyFlagMore
		}
		return parts
	case openflow.StatsTypePort:
		const perPart = statsPartBudget / 104
		if len(reply.Ports) <= perPart {
			return []openflow.Message{reply}
		}
		var parts []openflow.Message
		for start := 0; start < len(reply.Ports); start += perPart {
			end := start + perPart
			if end > len(reply.Ports) {
				end = len(reply.Ports)
			}
			part := &openflow.StatsReply{BaseMsg: reply.BaseMsg, StatsType: reply.StatsType,
				Ports: reply.Ports[start:end]}
			if end < len(reply.Ports) {
				part.Flags |= openflow.StatsReplyFlagMore
			}
			parts = append(parts, part)
		}
		return parts
	default:
		return []openflow.Message{reply}
	}
}

func (s *Switch) emitFlowRemoved(removed []Removed) {
	now := s.clock.Now()
	for _, r := range removed {
		if r.Entry.Flags&openflow.FlowModFlagSendFlowRem == 0 {
			continue
		}
		d := now.Sub(r.Entry.Installed)
		s.send(&openflow.FlowRemoved{
			Match:        r.Entry.Match,
			Cookie:       r.Entry.Cookie,
			Priority:     r.Entry.Priority,
			Reason:       r.Reason,
			DurationSec:  uint32(d.Seconds()),
			DurationNsec: uint32(d.Nanoseconds() % 1e9),
			IdleTimeout:  r.Entry.IdleTimeout,
			PacketCount:  r.Entry.PacketCount,
			ByteCount:    r.Entry.ByteCount,
		})
	}
}

// Expire evicts timed-out entries and notifies the controller.
func (s *Switch) Expire() {
	s.emitFlowRemoved(s.table.Expire())
}

func (s *Switch) storeBuffer(f *Frame, inPort uint16) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextBuf++
	if s.nextBuf == openflow.BufferIDNone {
		s.nextBuf = 1
	}
	id := s.nextBuf
	s.buffers[id] = &bufferedPacket{frame: f, inPort: inPort}
	// Bound the buffer pool like real hardware: drop oldest beyond 256.
	if len(s.buffers) > 256 {
		for k := range s.buffers {
			if k != id {
				delete(s.buffers, k)
				break
			}
		}
	}
	return id
}

func (s *Switch) takeBuffer(id uint32) *bufferedPacket {
	s.mu.Lock()
	defer s.mu.Unlock()
	bp := s.buffers[id]
	delete(s.buffers, id)
	return bp
}

// Inject delivers a frame into the switch dataplane at inPort, as if it
// arrived on the wire. It is the entry point used by hosts and by
// upstream switches.
func (s *Switch) Inject(inPort uint16, f *Frame) {
	s.receive(inPort, f, 0)
}

func (s *Switch) receive(inPort uint16, f *Frame, hops int) {
	if hops > MaxHops {
		s.LoopDrops.Add(1)
		return
	}
	s.mu.Lock()
	if s.down {
		s.mu.Unlock()
		return
	}
	if p, ok := s.ports[inPort]; ok {
		p.Stats.RxPackets++
		p.Stats.RxBytes += uint64(len(f.Payload) + 34)
	}
	s.mu.Unlock()

	raw := f.Marshal()
	entry := s.table.Lookup(f.Fields(inPort), len(raw))
	if entry == nil {
		s.tableMiss(inPort, f, raw)
		return
	}
	s.execActions(f, inPort, entry.Actions, hops)
}

func (s *Switch) tableMiss(inPort uint16, f *Frame, raw []byte) {
	conn := s.currentConn()
	if conn == nil {
		s.TableMissDrops.Add(1)
		return
	}
	s.mu.Lock()
	msl := int(s.missSendLen)
	s.mu.Unlock()
	bufID := s.storeBuffer(f, inPort)
	data := raw
	if msl > 0 && len(data) > msl {
		data = data[:msl]
	}
	s.PacketIns.Add(1)
	_ = conn.WriteMessage(&openflow.PacketIn{
		BufferID: bufID,
		TotalLen: uint16(len(raw)),
		InPort:   inPort,
		Reason:   openflow.PacketInReasonNoMatch,
		Data:     data,
	})
}

// execActions applies an action list to a frame, forwarding out each
// referenced port.
func (s *Switch) execActions(f *Frame, inPort uint16, actions []openflow.Action, hops int) {
	out, ports := ApplyActions(f, actions)
	for _, p := range ports {
		s.output(&out, inPort, p, hops)
	}
}

func (s *Switch) output(f *Frame, inPort, outPort uint16, hops int) {
	switch outPort {
	case openflow.PortController:
		conn := s.currentConn()
		if conn == nil {
			return
		}
		raw := f.Marshal()
		s.PacketIns.Add(1)
		_ = conn.WriteMessage(&openflow.PacketIn{
			BufferID: openflow.BufferIDNone,
			TotalLen: uint16(len(raw)),
			InPort:   inPort,
			Reason:   openflow.PacketInReasonAction,
			Data:     raw,
		})
	case openflow.PortInPort:
		s.transmit(f, inPort, hops)
	case openflow.PortFlood, openflow.PortAll:
		s.mu.Lock()
		var targets []uint16
		for n, p := range s.ports {
			if n == inPort {
				continue
			}
			if outPort == openflow.PortFlood && p.Desc.Config&openflow.PortConfigNoFlood != 0 {
				continue
			}
			targets = append(targets, n)
		}
		s.mu.Unlock()
		for _, t := range targets {
			s.transmit(f, t, hops)
		}
	case openflow.PortTable, openflow.PortNormal, openflow.PortLocal, openflow.PortNone:
		// PortTable re-submits a PacketOut through the flow table.
		if outPort == openflow.PortTable {
			s.receive(inPort, f, hops+1)
		}
	default:
		s.transmit(f, outPort, hops)
	}
}

// transmit puts the frame on the wire attached to outPort.
func (s *Switch) transmit(f *Frame, outPort uint16, hops int) {
	s.mu.Lock()
	p, ok := s.ports[outPort]
	if !ok || s.down || p.Desc.Config&openflow.PortConfigDown != 0 || p.Desc.LinkDown() {
		s.mu.Unlock()
		return
	}
	p.Stats.TxPackets++
	p.Stats.TxBytes += uint64(len(f.Payload) + 34)
	s.mu.Unlock()
	if s.net != nil {
		s.net.deliver(s.DPID, outPort, f, hops)
	}
}

// setPortLinkState flips the link-down bit and emits PortStatus.
func (s *Switch) setPortLinkState(portNo uint16, down bool) {
	s.mu.Lock()
	p, ok := s.ports[portNo]
	if !ok {
		s.mu.Unlock()
		return
	}
	if down {
		p.Desc.State |= openflow.PortStateLinkDown
	} else {
		p.Desc.State &^= openflow.PortStateLinkDown
	}
	desc := p.Desc
	s.mu.Unlock()
	s.send(&openflow.PortStatus{Reason: openflow.PortReasonModify, Desc: desc})
}
