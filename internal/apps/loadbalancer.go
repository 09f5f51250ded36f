package apps

import (
	"hash/fnv"
	"sync"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// LoadBalancer plays FlowScale's role from Table 2: traffic
// engineering. It spreads flows arriving at configured switches across
// a set of uplink ports by hashing the flow's 5-tuple, installing one
// exact-match rule per flow. Per-uplink flow counts are tracked so
// skew is observable.
type LoadBalancer struct {
	// Uplinks maps a switch to the ports flows are balanced across.
	Uplinks map[uint64][]uint16
	// IdleTimeout for installed flow rules.
	IdleTimeout uint16
	// Priority for installed flow rules.
	Priority uint16

	// mu guards assigned against concurrent management reads.
	mu       sync.Mutex
	assigned map[uint64]map[uint16]uint64 // dpid -> port -> flows assigned
}

// NewLoadBalancer builds a balancer for the given uplink map.
func NewLoadBalancer(uplinks map[uint64][]uint16) *LoadBalancer {
	return &LoadBalancer{
		Uplinks:     uplinks,
		IdleTimeout: 30,
		Priority:    30,
		assigned:    make(map[uint64]map[uint16]uint64),
	}
}

// Name implements controller.App.
func (*LoadBalancer) Name() string { return "flowscale" }

// Subscriptions implements controller.App.
func (*LoadBalancer) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

// Assigned reports how many flows have been pinned to (dpid, port).
func (lb *LoadBalancer) Assigned(dpid uint64, port uint16) uint64 {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.assigned[dpid][port]
}

// HandleEvent implements controller.App.
func (lb *LoadBalancer) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok {
		return nil
	}
	uplinks := lb.Uplinks[ev.DPID]
	if len(uplinks) == 0 {
		return nil // not a balanced switch
	}
	fields, err := flowFields(pin.Data)
	if err != nil {
		return nil
	}
	port := uplinks[int(hash5Tuple(fields)%uint32(len(uplinks)))]

	lb.mu.Lock()
	nested(lb.assigned, ev.DPID)[port]++
	lb.mu.Unlock()

	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto |
		openflow.WildcardTpSrc | openflow.WildcardTpDst
	m.SetNwSrcMaskBits(0)
	m.SetNwDstMaskBits(0)
	m.DlType = fields.DlType
	m.NwProto = fields.NwProto
	m.NwSrc = fields.NwSrc
	m.NwDst = fields.NwDst
	m.TpSrc = fields.TpSrc
	m.TpDst = fields.TpDst
	if err := ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
		Match:       m,
		Command:     openflow.FlowModAdd,
		IdleTimeout: lb.IdleTimeout,
		Priority:    lb.Priority,
		BufferID:    openflow.BufferIDNone,
		OutPort:     openflow.PortNone,
		Actions:     []openflow.Action{&openflow.ActionOutput{Port: port}},
	}); err != nil {
		return err
	}
	return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
		BufferID: pin.BufferID,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: port}},
		Data:     packetOutData(pin),
	})
}

// flowFields extracts the 5-tuple from a raw frame.
func flowFields(b []byte) (openflow.PacketFields, error) {
	var p openflow.PacketFields
	if len(b) < 14 {
		return p, errShortFrame
	}
	copy(p.DlDst[:], b[0:6])
	copy(p.DlSrc[:], b[6:12])
	p.DlType = uint16(b[12])<<8 | uint16(b[13])
	if p.DlType == 0x0800 && len(b) >= 34 {
		ip := b[14:]
		p.NwProto = ip[9]
		p.NwSrc = uint32(ip[12])<<24 | uint32(ip[13])<<16 | uint32(ip[14])<<8 | uint32(ip[15])
		p.NwDst = uint32(ip[16])<<24 | uint32(ip[17])<<16 | uint32(ip[18])<<8 | uint32(ip[19])
		if (p.NwProto == 6 || p.NwProto == 17) && len(b) >= 38 {
			p.TpSrc = uint16(b[34])<<8 | uint16(b[35])
			p.TpDst = uint16(b[36])<<8 | uint16(b[37])
		}
	}
	return p, nil
}

func hash5Tuple(p openflow.PacketFields) uint32 {
	h := fnv.New32a()
	var buf [13]byte
	buf[0] = p.NwProto
	buf[1], buf[2], buf[3], buf[4] = byte(p.NwSrc>>24), byte(p.NwSrc>>16), byte(p.NwSrc>>8), byte(p.NwSrc)
	buf[5], buf[6], buf[7], buf[8] = byte(p.NwDst>>24), byte(p.NwDst>>16), byte(p.NwDst>>8), byte(p.NwDst)
	buf[9], buf[10] = byte(p.TpSrc>>8), byte(p.TpSrc)
	buf[11], buf[12] = byte(p.TpDst>>8), byte(p.TpDst)
	h.Write(buf[:])
	return h.Sum32()
}

// Snapshot implements controller.Snapshotter: per switch, one (port,
// flows) record per uplink in use.
func (lb *LoadBalancer) Snapshot() ([]byte, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	b := newImage(tagLoadBalancer, listHead*len(lb.assigned)+10*leafCount(lb.assigned))
	var outer, inner [sortedRoom]uint64
	for _, dpid := range sortedWords(outer[:0], lb.assigned, keyWord) {
		b = appendList(b, dpid, len(lb.assigned[dpid]))
		for _, port := range sortedWords(inner[:0], lb.assigned[dpid], keyWord) {
			b = be.AppendUint64(be.AppendUint16(b, uint16(port)), lb.assigned[dpid][uint16(port)])
		}
	}
	return b, nil
}

// Restore implements controller.Snapshotter.
func (lb *LoadBalancer) Restore(state []byte) error {
	assigned := make(map[uint64]map[uint16]uint64)
	if _, err := readImage(state, tagLoadBalancer, 0, 10, func(dpid uint64, recs []byte) {
		for counts := nested(assigned, dpid); len(recs) > 0; recs = recs[10:] {
			counts[be.Uint16(recs)] = be.Uint64(recs[2:])
		}
	}); err != nil {
		return err
	}
	lb.mu.Lock()
	defer lb.mu.Unlock()
	lb.assigned = assigned
	return nil
}
