package replica

import (
	"fmt"
	"testing"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/durable"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// testApp installs one idempotent rule per PacketIn, giving every
// journal transaction real switch state to replicate and roll back.
type testApp struct{ name string }

func (a *testApp) Name() string { return a.name }
func (a *testApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *testApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
	m.DlType = 0x0800
	m.NwProto = 6
	m.TpDst = uint16(8000 + ev.Seq%64)
	return ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
		Match:    m,
		Command:  openflow.FlowModAdd,
		Priority: 100,
		BufferID: openflow.BufferIDNone,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 100}},
	})
}

// orphanRule is the mid-transaction rule the failover must roll back.
func orphanRule(i int) *openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
	m.DlType = 0x0800
	m.NwProto = 6
	m.TpDst = uint16(9700 + i)
	return &openflow.FlowMod{
		Match:    m,
		Command:  openflow.FlowModAdd,
		Priority: 210,
		BufferID: openflow.BufferIDNone,
		OutPort:  openflow.PortNone,
		Actions:  []openflow.Action{&openflow.ActionOutput{Port: 100}},
	}
}

func testCluster(t *testing.T, mode CommitMode) (*Cluster, *netsim.Network) {
	t.Helper()
	n := netsim.Single(2, nil)
	c := startCluster(t, n, func(o *Options) {
		o.CommitMode = mode
		o.CheckpointEvery = 4
	})
	t.Cleanup(c.Close)
	return c, n
}

// startCluster starts a 3-replica cluster of one testApp on n, with
// short leases and unsynced WALs; tune adjusts the options first. The
// caller closes it.
func startCluster(t *testing.T, n *netsim.Network, tune func(*Options)) *Cluster {
	t.Helper()
	opts := Options{
		Dir:            t.TempDir(),
		Replicas:       3,
		CommitMode:     CommitQuorum,
		LeaseTTL:       80 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond,
		WAL:            durable.Options{NoSync: true},
		Apps: []func() controller.App{
			func() controller.App { return &testApp{name: "rec0"} },
		},
	}
	if tune != nil {
		tune(&opts)
	}
	c := New(opts)
	if err := c.Start(n); err != nil {
		t.Fatalf("cluster start: %v", err)
	}
	return c
}

func injectN(t *testing.T, c *Cluster, count int) {
	t.Helper()
	stack := c.Stack()
	for i := 0; i < count; i++ {
		target := stack.Controller.Processed.Load() + 1
		if err := stack.Controller.Inject(controller.Event{
			Kind: controller.EventPacketIn,
			DPID: 1,
			Message: &openflow.PacketIn{
				BufferID: openflow.BufferIDNone,
				InPort:   100,
				Reason:   openflow.PacketInReasonNoMatch,
			},
		}); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
		waitFor(t, fmt.Sprintf("event %d processed", i), func() bool {
			return stack.Controller.Processed.Load() >= target
		})
	}
}

// TestClusterKillLeaderFailover is the end-to-end failover path: a
// 3-replica quorum-commit cluster loses its leader mid-transaction; a
// follower must win the lease, roll the orphaned transaction back from
// its replicated journal, and resume dispatching new events.
func TestClusterKillLeaderFailover(t *testing.T) {
	c, n := testCluster(t, CommitQuorum)
	injectN(t, c, 6)

	// Quorum commit: each op was on a quorum before its FlowMod left. The
	// closing records are shipped without being waited for, so the last
	// one may still be on its way when Processed ticks; it arrives on its
	// own, with nothing further written to push it.
	waitFor(t, "replication drained", func() bool { return c.ReplicationLag() == 0 })

	// Open a transaction, touch the switch, and die before resolution.
	stack := c.Stack()
	tx := stack.NetLog.Begin()
	stack.NetLog.SetActive(tx)
	for i := 0; i < 3; i++ {
		if err := stack.Controller.SendFlowMod(1, orphanRule(i)); err != nil {
			t.Fatalf("mid-txn flow mod: %v", err)
		}
	}
	stack.NetLog.SetActive(nil)
	if err := stack.Controller.Barrier(1); err != nil {
		t.Fatal(err)
	}
	if err := c.KillLeader(); err != nil {
		t.Fatal(err)
	}

	successor, err := c.WaitLeader("node0", 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.LeaderName(); got == "node0" || got == "" {
		t.Fatalf("leader after failover = %q", got)
	}
	if c.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", c.Failovers())
	}
	if c.LastMTTR() <= 0 {
		t.Fatal("failover MTTR not recorded")
	}

	// The orphaned transaction was found in the replicated journal and
	// rolled back against the still-connected switch.
	if got := c.State().RecoveredTxns(); got < 1 {
		t.Fatalf("recovered txns = %d, want >= 1", got)
	}
	for _, e := range n.Switch(1).Table().Entries() {
		if e.Priority == 210 {
			t.Fatalf("rolled-back rule still installed: tp_dst=%d", e.Match.TpDst)
		}
	}

	// New events flow through the successor.
	injectN(t, c, 3)
	if successor.Controller.Crashed() {
		t.Fatal("successor controller crashed")
	}

	// The failover autopsy covers election and catch-up.
	var sawFailover bool
	for _, a := range successor.Autopsies.All() {
		if a.Trigger == "failover" {
			sawFailover = true
			byName := map[string]bool{}
			for _, p := range a.Timeline {
				byName[p.Phase] = true
			}
			for _, phase := range []string{"detect", "election", "catch-up", "resume"} {
				if !byName[phase] {
					t.Fatalf("failover autopsy timeline missing phase %q", phase)
				}
			}
		}
	}
	if !sawFailover {
		t.Fatal("no failover autopsy recorded on the successor")
	}
}

// TestClusterIsolatedLeaderIsFenced partitions the leader instead of
// killing it: after a successor is promoted, the old leader's
// state-changing messages must bounce off the switches (EPERM slave
// fencing), so a split brain cannot corrupt the data plane.
func TestClusterIsolatedLeaderIsFenced(t *testing.T) {
	c, n := testCluster(t, CommitAsync)
	injectN(t, c, 4)

	if err := c.IsolateLeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitLeader("node0", 15*time.Second); err != nil {
		t.Fatal(err)
	}

	// The fenced ex-leader still runs and still believes it can write.
	old := c.OldLeaderStack()
	if old == nil {
		t.Fatal("isolated leader stack not retained")
	}
	before := len(n.Switch(1).Table().Entries())
	if err := old.Controller.SendFlowMod(1, orphanRule(9)); err != nil {
		t.Fatalf("fenced send errored at the controller: %v", err)
	}
	_ = old.Controller.Barrier(1)
	for _, e := range n.Switch(1).Table().Entries() {
		if e.Priority == 210 {
			t.Fatal("fenced ex-leader installed a rule through a slave connection")
		}
	}
	if got := len(n.Switch(1).Table().Entries()); got != before {
		t.Fatalf("table grew from %d to %d entries via a fenced connection", before, got)
	}

	// The healthy side keeps serving.
	injectN(t, c, 3)
}
