package apps

import (
	"sync"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// ShortestPathRouter plays RouteFlow's role from Table 2: routing. It
// learns host attachment points from packet-ins (a device manager, in
// FloodLight terms), computes shortest paths over the controller's
// discovered topology and installs a rule per switch along the path.
type ShortestPathRouter struct {
	IdleTimeout uint16
	Priority    uint16

	// mu guards the learned state against concurrent management reads.
	mu sync.Mutex
	// hostAt maps a MAC to its attachment point.
	hostAt map[openflow.EthAddr]attachment
	// pathsInstalled counts installed paths, exposed for tests/benches.
	pathsInstalled int
}

type attachment struct {
	DPID uint64
	Port uint16
}

// NewShortestPathRouter returns a router with defaults (idle 60s,
// priority 20).
func NewShortestPathRouter() *ShortestPathRouter {
	return &ShortestPathRouter{IdleTimeout: 60, Priority: 20,
		hostAt: make(map[openflow.EthAddr]attachment)}
}

// Name implements controller.App.
func (*ShortestPathRouter) Name() string { return "routing" }

// Subscriptions implements controller.App.
func (*ShortestPathRouter) Subscriptions() []controller.EventKind {
	return []controller.EventKind{
		controller.EventPacketIn,
		controller.EventSwitchDown,
		controller.EventPortStatus,
	}
}

// PathsInstalled reports how many full paths the router has programmed.
func (r *ShortestPathRouter) PathsInstalled() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pathsInstalled
}

// KnownHosts reports how many attachment points are learned.
func (r *ShortestPathRouter) KnownHosts() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.hostAt)
}

// HandleEvent implements controller.App.
func (r *ShortestPathRouter) HandleEvent(ctx controller.Context, ev controller.Event) error {
	switch ev.Kind {
	case controller.EventSwitchDown:
		// Forget hosts behind the dead switch; paths through it will be
		// recomputed on demand.
		r.mu.Lock()
		for mac, at := range r.hostAt {
			if at.DPID == ev.DPID {
				delete(r.hostAt, mac)
			}
		}
		r.mu.Unlock()
		return nil
	case controller.EventPortStatus:
		// Link churn invalidates nothing we cache (paths are computed
		// per packet-in from live topology).
		return nil
	case controller.EventPacketIn:
	default:
		return nil
	}

	pin := ev.Message.(*openflow.PacketIn)
	f, err := parseEthernet(pin.Data)
	if err != nil {
		return nil
	}
	// Device learning: hosts live on non-inter-switch ports. A port
	// that appears in the topology is inter-switch; skip learning there.
	if !f.src.IsMulticast() && !r.isInterSwitchPort(ctx, ev.DPID, pin.InPort) {
		r.mu.Lock()
		r.hostAt[f.src] = attachment{ev.DPID, pin.InPort}
		r.mu.Unlock()
	}

	r.mu.Lock()
	dst, known := r.hostAt[f.dst]
	r.mu.Unlock()
	if !known || f.dst.IsBroadcast() || f.dst.IsMulticast() {
		return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
			BufferID: pin.BufferID,
			InPort:   pin.InPort,
			Actions:  []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
			Data:     packetOutData(pin),
		})
	}

	path, ok := r.shortestPath(ctx, ev.DPID, dst.DPID)
	if !ok {
		// No route (partitioned); drop by inaction.
		return nil
	}
	// Install a dl_dst rule on every switch along the path.
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlDst
	m.DlDst = f.dst
	outPorts, ok := r.pathOutPorts(ctx, path, dst.Port)
	if !ok {
		return nil
	}
	for i, dpid := range path {
		if err := ctx.SendFlowMod(dpid, &openflow.FlowMod{
			Match:       m,
			Command:     openflow.FlowModAdd,
			IdleTimeout: r.IdleTimeout,
			Priority:    r.Priority,
			BufferID:    openflow.BufferIDNone,
			OutPort:     openflow.PortNone,
			Actions:     []openflow.Action{&openflow.ActionOutput{Port: outPorts[i]}},
		}); err != nil {
			return err
		}
	}
	r.mu.Lock()
	r.pathsInstalled++
	r.mu.Unlock()
	// Release the triggering packet along the first hop.
	return ctx.SendPacketOut(ev.DPID, &openflow.PacketOut{
		BufferID: pin.BufferID,
		InPort:   pin.InPort,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: outPorts[0]}},
		Data:     packetOutData(pin),
	})
}

// isInterSwitchPort consults the discovered topology.
func (r *ShortestPathRouter) isInterSwitchPort(ctx controller.Context, dpid uint64, port uint16) bool {
	for _, l := range ctx.Topology() {
		if (l.SrcDPID == dpid && l.SrcPort == port) || (l.DstDPID == dpid && l.DstPort == port) {
			return true
		}
	}
	return false
}

// shortestPath runs BFS over the discovered topology from src to dst,
// returning the dpid sequence including both endpoints.
func (r *ShortestPathRouter) shortestPath(ctx controller.Context, src, dst uint64) ([]uint64, bool) {
	if src == dst {
		return []uint64{src}, true
	}
	adj := make(map[uint64][]uint64)
	for _, l := range ctx.Topology() {
		adj[l.SrcDPID] = append(adj[l.SrcDPID], l.DstDPID)
	}
	prev := map[uint64]uint64{src: src}
	queue := []uint64{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == dst {
				// Reconstruct.
				path := []uint64{dst}
				for at := dst; at != src; {
					at = prev[at]
					path = append([]uint64{at}, path...)
				}
				return path, true
			}
			queue = append(queue, next)
		}
	}
	return nil, false
}

// pathOutPorts resolves the egress port at each hop: the port toward
// the next switch, and finally the host's attachment port.
func (r *ShortestPathRouter) pathOutPorts(ctx controller.Context, path []uint64, hostPort uint16) ([]uint16, bool) {
	links := ctx.Topology()
	out := make([]uint16, len(path))
	for i := 0; i < len(path)-1; i++ {
		found := false
		for _, l := range links {
			if l.SrcDPID == path[i] && l.DstDPID == path[i+1] {
				out[i] = l.SrcPort
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	out[len(path)-1] = hostPort
	return out, true
}

// Snapshot implements controller.Snapshotter: the installed-path count,
// then one (mac, port, dpid) record per known host.
func (r *ShortestPathRouter) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := newImage(tagRouter, 8+listHead+16*len(r.hostAt))
	b = appendList(be.AppendUint64(b, uint64(r.pathsInstalled)), 0, len(r.hostAt))
	var room [sortedRoom]uint64
	hosts := sortedWords(room[:0], r.hostAt, func(mac openflow.EthAddr, at attachment) uint64 { return macPort(mac, at.Port) })
	for _, w := range hosts {
		b = be.AppendUint64(b, w)
		b = be.AppendUint64(b, r.hostAt[openflow.EthAddr(b[len(b)-8:])].DPID)
	}
	return b, nil
}

// Restore implements controller.Snapshotter.
func (r *ShortestPathRouter) Restore(state []byte) error {
	hostAt := make(map[openflow.EthAddr]attachment)
	hdr, err := readImage(state, tagRouter, 8, 16, func(_ uint64, recs []byte) {
		for ; len(recs) > 0; recs = recs[16:] {
			hostAt[openflow.EthAddr(recs[:6])] = attachment{be.Uint64(recs[8:]), be.Uint16(recs[6:])}
		}
	})
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hostAt = hostAt
	r.pathsInstalled = int(be.Uint64(hdr))
	return nil
}
