package apps

import (
	"sync/atomic"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// FirewallRule denies traffic matching the populated fields (zero
// fields are wildcards).
type FirewallRule struct {
	NwSrc   uint32 // exact source IP, 0 = any
	NwDst   uint32 // exact destination IP, 0 = any
	NwProto uint8  // IP protocol, 0 = any
	TpDst   uint16 // destination port, 0 = any
}

func (r FirewallRule) matches(p openflow.PacketFields) bool {
	if r.NwSrc != 0 && r.NwSrc != p.NwSrc {
		return false
	}
	if r.NwDst != 0 && r.NwDst != p.NwDst {
		return false
	}
	if r.NwProto != 0 && r.NwProto != p.NwProto {
		return false
	}
	if r.TpDst != 0 && r.TpDst != p.TpDst {
		return false
	}
	return true
}

// Firewall plays BigTap's role from Table 2: security enforcement. On
// a packet-in matching a deny rule, it installs a high-priority drop
// rule (empty action list) pinning the flow to the floor; allowed
// traffic is left for downstream apps to route.
type Firewall struct {
	Rules    []FirewallRule
	Priority uint16

	// blocked counts dropped flows (atomic: read by management code).
	blocked atomic.Uint64
}

// NewFirewall builds a firewall with the given deny rules.
func NewFirewall(rules []FirewallRule) *Firewall {
	return &Firewall{Rules: rules, Priority: 100}
}

// Name implements controller.App.
func (*Firewall) Name() string { return "firewall" }

// Subscriptions implements controller.App.
func (*Firewall) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

// Blocked reports how many flows have been denied.
func (fw *Firewall) Blocked() uint64 { return fw.blocked.Load() }

// HandleEvent implements controller.App.
func (fw *Firewall) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok {
		return nil
	}
	fields, err := flowFields(pin.Data)
	if err != nil {
		return nil
	}
	for _, r := range fw.Rules {
		if !r.matches(fields) {
			continue
		}
		fw.blocked.Add(1)
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType
		m.DlType = fields.DlType
		if r.NwSrc != 0 {
			m.NwSrc = r.NwSrc
			m.SetNwSrcMaskBits(0)
		}
		if r.NwDst != 0 {
			m.NwDst = r.NwDst
			m.SetNwDstMaskBits(0)
		}
		if r.NwProto != 0 {
			m.Wildcards &^= openflow.WildcardNwProto
			m.NwProto = r.NwProto
		}
		if r.TpDst != 0 {
			m.Wildcards &^= openflow.WildcardTpDst
			m.TpDst = r.TpDst
		}
		// Empty action list = drop.
		return ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
			Match:       m,
			Command:     openflow.FlowModAdd,
			IdleTimeout: 300,
			Priority:    fw.Priority,
			BufferID:    openflow.BufferIDNone,
			OutPort:     openflow.PortNone,
		})
	}
	return nil
}

// Snapshot implements controller.Snapshotter: the blocked count, then
// one record per deny rule in evaluation order.
func (fw *Firewall) Snapshot() ([]byte, error) {
	b := newImage(tagFirewall, 8+listHead+11*len(fw.Rules))
	b = appendList(be.AppendUint64(b, fw.blocked.Load()), 0, len(fw.Rules))
	for _, r := range fw.Rules {
		b = be.AppendUint32(be.AppendUint32(b, r.NwSrc), r.NwDst)
		b = be.AppendUint16(append(b, r.NwProto), r.TpDst)
	}
	return b, nil
}

// Restore implements controller.Snapshotter.
func (fw *Firewall) Restore(state []byte) error {
	var rules []FirewallRule
	hdr, err := readImage(state, tagFirewall, 8, 11, func(_ uint64, recs []byte) {
		for ; len(recs) > 0; recs = recs[11:] {
			rules = append(rules, FirewallRule{NwSrc: be.Uint32(recs), NwDst: be.Uint32(recs[4:]),
				NwProto: recs[8], TpDst: be.Uint16(recs[9:])})
		}
	})
	if err != nil {
		return err
	}
	fw.Rules = rules
	fw.blocked.Store(be.Uint64(hdr))
	return nil
}

// StatsCollector accumulates final per-flow accounting from
// FlowRemoved notifications — the counter-store-style service the
// paper's §4.1 apps used.
type StatsCollector struct {
	TotalPackets uint64
	TotalBytes   uint64
	FlowsEnded   uint64
}

// NewStatsCollector returns an empty collector.
func NewStatsCollector() *StatsCollector { return &StatsCollector{} }

// Name implements controller.App.
func (*StatsCollector) Name() string { return "stats-collector" }

// Subscriptions implements controller.App.
func (*StatsCollector) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventFlowRemoved}
}

// HandleEvent implements controller.App.
func (sc *StatsCollector) HandleEvent(_ controller.Context, ev controller.Event) error {
	fr, ok := ev.Message.(*openflow.FlowRemoved)
	if !ok {
		return nil
	}
	sc.TotalPackets += fr.PacketCount
	sc.TotalBytes += fr.ByteCount
	sc.FlowsEnded++
	return nil
}

// Snapshot implements controller.Snapshotter.
func (sc *StatsCollector) Snapshot() ([]byte, error) {
	b := be.AppendUint64(newImage(tagStatsCollector, 24), sc.TotalPackets)
	return be.AppendUint64(be.AppendUint64(b, sc.TotalBytes), sc.FlowsEnded), nil
}

// Restore implements controller.Snapshotter.
func (sc *StatsCollector) Restore(state []byte) error {
	hdr, err := readImage(state, tagStatsCollector, 24, 0, func(uint64, []byte) {})
	if err != nil {
		return err
	}
	sc.TotalPackets, sc.TotalBytes, sc.FlowsEnded = be.Uint64(hdr), be.Uint64(hdr[8:]), be.Uint64(hdr[16:])
	return nil
}
