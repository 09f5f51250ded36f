package apps

import (
	"sort"
	"sync"

	"legosdn/internal/controller"
	"legosdn/internal/openflow"
)

// SpanningTree makes flooding safe on topologies with loops, the job
// FloodLight's topology module performs: it computes a spanning tree
// over the controller's discovered links (BFS from the lowest datapath
// id) and administratively excludes non-tree inter-switch ports from
// flooding via PortMod(NoFlood). Broadcast storms on rings and meshes
// die at the blocked ports while every host remains reachable through
// the tree.
type SpanningTree struct {
	mu sync.Mutex
	// blocked records which ports we have flood-disabled, so
	// convergence is observable and reversals are precise.
	blocked map[uint64]map[uint16]bool
	// recomputes counts tree computations.
	recomputes int
}

// NewSpanningTree returns the app; it converges after switches connect
// and topology discovery has run.
func NewSpanningTree() *SpanningTree {
	return &SpanningTree{blocked: make(map[uint64]map[uint16]bool)}
}

// Name implements controller.App.
func (*SpanningTree) Name() string { return "spanning-tree" }

// Subscriptions implements controller.App.
func (*SpanningTree) Subscriptions() []controller.EventKind {
	return []controller.EventKind{
		controller.EventSwitchUp,
		controller.EventSwitchDown,
		controller.EventPortStatus,
	}
}

// BlockedPorts reports how many ports are currently flood-disabled.
func (st *SpanningTree) BlockedPorts() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, ports := range st.blocked {
		n += len(ports)
	}
	return n
}

// Recomputes reports how many times the tree has been recomputed.
func (st *SpanningTree) Recomputes() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.recomputes
}

// HandleEvent implements controller.App: any topology-affecting event
// triggers a recompute.
func (st *SpanningTree) HandleEvent(ctx controller.Context, ev controller.Event) error {
	return st.Recompute(ctx)
}

// Recompute rebuilds the tree and pushes the port configuration diff.
// Exposed so deployments can also run it after topology discovery.
func (st *SpanningTree) Recompute(ctx controller.Context) error {
	links := ctx.Topology()
	switches := ctx.Switches()
	if len(switches) == 0 {
		return nil
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	// Adjacency with the egress port per direction.
	type edge struct {
		to   uint64
		port uint16
	}
	adj := make(map[uint64][]edge)
	for _, l := range links {
		adj[l.SrcDPID] = append(adj[l.SrcDPID], edge{to: l.DstDPID, port: l.SrcPort})
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].port < edges[j].port
		})
	}

	// BFS from the lowest dpid; tree ports are the ones a first-visit
	// traversal crosses (both directions).
	treePort := make(map[uint64]map[uint16]bool)
	markTree := func(dpid uint64, port uint16) {
		nested(treePort, dpid)[port] = true
	}
	visited := map[uint64]bool{switches[0]: true}
	queue := []uint64{switches[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range adj[cur] {
			if visited[e.to] {
				continue
			}
			visited[e.to] = true
			markTree(cur, e.port)
			// The reverse direction of the same cable.
			for _, back := range adj[e.to] {
				if back.to == cur {
					markTree(e.to, back.port)
					break
				}
			}
			queue = append(queue, e.to)
		}
	}

	// Desired blocked set: every inter-switch port not on the tree.
	desired := make(map[uint64]map[uint16]bool)
	for _, l := range links {
		if !treePort[l.SrcDPID][l.SrcPort] {
			nested(desired, l.SrcDPID)[l.SrcPort] = true
		}
	}

	// Push the diff as PortMods.
	st.mu.Lock()
	prev := st.blocked
	st.blocked = desired
	st.recomputes++
	st.mu.Unlock()

	setNoFlood := func(dpid uint64, port uint16, on bool) error {
		cfg := uint32(0)
		if on {
			cfg = openflow.PortConfigNoFlood
		}
		return ctx.SendMessage(dpid, &openflow.PortMod{
			PortNo: port,
			Config: cfg,
			Mask:   openflow.PortConfigNoFlood,
		})
	}
	for dpid, ports := range desired {
		for port := range ports {
			if !prev[dpid][port] {
				if err := setNoFlood(dpid, port, true); err != nil {
					return err
				}
			}
		}
	}
	for dpid, ports := range prev {
		for port := range ports {
			if !desired[dpid][port] {
				if err := setNoFlood(dpid, port, false); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Snapshot implements controller.Snapshotter: the recompute count, then
// per switch its blocked ports.
func (st *SpanningTree) Snapshot() ([]byte, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := newImage(tagSpanningTree, 8+listHead*len(st.blocked)+2*leafCount(st.blocked))
	b = be.AppendUint64(b, uint64(st.recomputes))
	var outer, inner [sortedRoom]uint64
	for _, dpid := range sortedWords(outer[:0], st.blocked, keyWord) {
		b = appendList(b, dpid, len(st.blocked[dpid]))
		for _, port := range sortedWords(inner[:0], st.blocked[dpid], keyWord) {
			b = be.AppendUint16(b, uint16(port))
		}
	}
	return b, nil
}

// Restore implements controller.Snapshotter.
func (st *SpanningTree) Restore(state []byte) error {
	blocked := make(map[uint64]map[uint16]bool)
	hdr, err := readImage(state, tagSpanningTree, 8, 2, func(dpid uint64, recs []byte) {
		for ports := nested(blocked, dpid); len(recs) > 0; recs = recs[2:] {
			ports[be.Uint16(recs)] = true
		}
	})
	if err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.blocked = blocked
	st.recomputes = int(be.Uint64(hdr))
	return nil
}
