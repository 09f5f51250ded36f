// Package apps provides the SDN applications the LegoSDN evaluation
// runs: the simple apps the paper moved into stubs (Hub, Flooder,
// LearningSwitch — §4.1) and counterparts of the Table 2 survey apps —
// a RouteFlow-like shortest-path router, a FlowScale-like traffic
// load-balancer, a BigTap-like security firewall — plus a statistics
// collector. Stateful apps implement controller.Snapshotter so
// Crash-Pad can checkpoint and restore them.
package apps

import (
	"errors"
	"sync"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// Hub floods every packet out all other ports, installing no state.
type Hub struct{}

// NewHub returns the stateless hub app.
func NewHub() *Hub { return &Hub{} }

// Name implements controller.App.
func (*Hub) Name() string { return "hub" }

// Subscriptions implements controller.App.
func (*Hub) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}

// HandleEvent implements controller.App.
func (*Hub) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin, ok := ev.Message.(*openflow.PacketIn)
	if !ok {
		return nil
	}
	return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
		BufferID: pin.BufferID,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
		Data:     packetOutData(pin),
	})
}

// packetOutData returns the raw frame for unbuffered packet-ins.
func packetOutData(pin *openflow.PacketIn) []byte {
	if pin.BufferID != openflow.BufferIDNone {
		return nil
	}
	return pin.Data
}

// Flooder is the hub plus a wildcard flood rule, so subsequent traffic
// floods in the dataplane without controller involvement.
type Flooder struct{}

// NewFlooder returns the flooder app.
func NewFlooder() *Flooder { return &Flooder{} }

// Name implements controller.App.
func (*Flooder) Name() string { return "flooder" }

// Subscriptions implements controller.App.
func (*Flooder) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn, controller.EventSwitchUp}
}

// HandleEvent implements controller.App.
func (*Flooder) HandleEvent(ctx controller.Context, ev controller.Event) error {
	switch ev.Kind {
	case controller.EventSwitchUp:
		return ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
			Match:    openflow.MatchAll(),
			Command:  openflow.FlowModAdd,
			Priority: 1,
			BufferID: openflow.BufferIDNone,
			OutPort:  openflow.PortNone,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
		})
	case controller.EventPacketIn:
		pin := ev.Message.(*openflow.PacketIn)
		return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
			BufferID: pin.BufferID,
			InPort:   pin.InPort,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
			Data:     packetOutData(pin),
		})
	}
	return nil
}

// LearningSwitch is the canonical stateful SDN-App: it learns MAC
// locations from packet-ins and installs exact forwarding rules once
// both endpoints are known.
type LearningSwitch struct {
	// Config.
	IdleTimeout uint16 // seconds; 0 disables idle expiry
	Priority    uint16

	// mu guards macs: events arrive on the dispatch goroutine while
	// management code (tests, dashboards) reads the learned state.
	mu   sync.Mutex
	macs map[uint64]map[openflow.EthAddr]uint16 // dpid -> mac -> port
}

// NewLearningSwitch returns a learning switch with the usual defaults
// (idle timeout 30s, priority 10).
func NewLearningSwitch() *LearningSwitch {
	return &LearningSwitch{IdleTimeout: 30, Priority: 10,
		macs: make(map[uint64]map[openflow.EthAddr]uint16)}
}

// Name implements controller.App.
func (*LearningSwitch) Name() string { return "learning-switch" }

// Subscriptions implements controller.App.
func (*LearningSwitch) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn, controller.EventSwitchDown}
}

// KnownMACs reports how many addresses the app has learned on a switch.
func (a *LearningSwitch) KnownMACs(dpid uint64) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.macs[dpid])
}

// HandleEvent implements controller.App.
func (a *LearningSwitch) HandleEvent(ctx controller.Context, ev controller.Event) error {
	switch ev.Kind {
	case controller.EventSwitchDown:
		a.mu.Lock()
		delete(a.macs, ev.DPID)
		a.mu.Unlock()
		return nil
	case controller.EventPacketIn:
	default:
		return nil
	}
	pin := ev.Message.(*openflow.PacketIn)
	f, err := parseEthernet(pin.Data)
	if err != nil {
		return nil // not a frame we understand; let it drop
	}
	a.mu.Lock()
	table := nested(a.macs, ev.DPID)
	if !f.src.IsMulticast() {
		table[f.src] = pin.InPort
	}
	outPort, known := table[f.dst]
	a.mu.Unlock()
	if !known || f.dst.IsBroadcast() || f.dst.IsMulticast() {
		// Unknown destination: flood, learn from the reply.
		return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
			BufferID: pin.BufferID,
			InPort:   pin.InPort,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
			Data:     packetOutData(pin),
		})
	}
	// Known destination: install the forwarding rule and release the
	// packet along it.
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlDst
	m.DlDst = f.dst
	if err := ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
		Match:       m,
		Command:     openflow.FlowModAdd,
		IdleTimeout: a.IdleTimeout,
		Priority:    a.Priority,
		BufferID:    openflow.BufferIDNone,
		OutPort:     openflow.PortNone,
		Flags:       openflow.FlowModFlagSendFlowRem,
		Actions:     []openflow.Action{&openflow.ActionOutput{Port: outPort}},
	}); err != nil {
		return err
	}
	return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
		BufferID: pin.BufferID,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: outPort}},
		Data:     packetOutData(pin),
	})
}

// Snapshot implements controller.Snapshotter: per switch, one (mac,
// port) record per learned address.
func (a *LearningSwitch) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b := newImage(tagLearningSwitch, listHead*len(a.macs)+8*leafCount(a.macs))
	var outer, inner [sortedRoom]uint64
	for _, dpid := range sortedWords(outer[:0], a.macs, keyWord) {
		b = appendList(b, dpid, len(a.macs[dpid]))
		for _, w := range sortedWords(inner[:0], a.macs[dpid], macPort) {
			b = be.AppendUint64(b, w)
		}
	}
	return b, nil
}

// Restore implements controller.Snapshotter.
func (a *LearningSwitch) Restore(state []byte) error {
	macs := make(map[uint64]map[openflow.EthAddr]uint16)
	if _, err := readImage(state, tagLearningSwitch, 0, 8, func(dpid uint64, recs []byte) {
		for table := nested(macs, dpid); len(recs) > 0; recs = recs[8:] {
			table[openflow.EthAddr(recs[:6])] = be.Uint16(recs[6:])
		}
	}); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.macs = macs
	return nil
}

// ethHeader is the slice of an Ethernet frame the apps care about.
type ethHeader struct {
	dst, src openflow.EthAddr
	ethType  uint16
}

func parseEthernet(b []byte) (ethHeader, error) {
	var h ethHeader
	if len(b) < 14 {
		return h, errShortFrame
	}
	copy(h.dst[:], b[0:6])
	copy(h.src[:], b[6:12])
	h.ethType = uint16(b[12])<<8 | uint16(b[13])
	return h, nil
}

var errShortFrame = errors.New("apps: frame too short")
