package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/durable"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/replica"
	"legosdn/internal/trace"
	"legosdn/internal/workload"
)

// runReplicated is the -replicas N demo: a replicated control plane
// over the simulated network. N replicas elect a leader, traffic
// flows, then the leader is killed with a journaled transaction still
// open — the followers see its streams end, one takes the next lease
// epoch, rolls the orphan back from its
// replicated journal, takes over the switches, and traffic keeps
// flowing.
//
// metricsAddr, when set, serves the debug mux over the cluster's own
// instruments (elections, failovers, replication lag, quorum waits);
// each stack incarnation keeps its private registry.
func runReplicated(replicas int, n *netsim.Network, appNames []string, flows, checkpointDelta int, stateDir, topo, metricsAddr string) {
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "legosdn-replicas-")
		if err != nil {
			log.Fatalf("legosdn: %v", err)
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}

	factories := make([]func() controller.App, 0, len(appNames))
	for _, name := range appNames {
		factories = append(factories, func() controller.App { return mustApp(name) })
	}

	reg := metrics.NewRegistry()
	if metricsAddr != "" {
		fmt.Printf("cluster metrics on http://%s/metrics, pprof on http://%s/debug/pprof\n", metricsAddr, metricsAddr)
		go trace.Serve(metricsAddr, trace.NewDebugMux(nil, reg), "legosdn")
	}
	cluster := replica.New(replica.Options{
		Dir:             stateDir,
		Replicas:        replicas,
		CommitMode:      replica.CommitQuorum,
		LeaseTTL:        150 * time.Millisecond,
		HeartbeatEvery:  50 * time.Millisecond,
		CheckpointDelta: checkpointDelta,
		WAL:             durable.Options{GroupCommit: true},
		Apps:            factories,
		Metrics:         reg,
		Logf:            log.Printf,
	})
	if err := cluster.Start(n); err != nil {
		log.Fatalf("legosdn: cluster start: %v", err)
	}
	defer cluster.Close()
	fmt.Printf("replicated control plane up: %d replicas, leader %s, quorum commit, state in %s\n",
		replicas, cluster.LeaderName(), stateDir)
	fmt.Printf("network up: %d switches, %d hosts (%s)\n", len(n.Switches()), len(n.Hosts()), topo)

	gen := workload.NewTrafficGen(n, 42)
	gen.SendFlows(flows)
	settle(cluster.Stack())
	fmt.Printf("sent %d flows via leader %s; delivered frames per host:", flows, cluster.LeaderName())
	for _, h := range n.Hosts() {
		fmt.Printf(" %s=%d", h.Name, h.ReceivedCount())
	}
	fmt.Println()

	// Stage a journaled transaction that never resolves: the successor
	// must presume abort and roll these rules back during failover.
	stack := cluster.Stack()
	sw := n.Switches()[0]
	tx := stack.NetLog.Begin()
	stack.NetLog.SetActive(tx)
	for i := 0; i < 2; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlType | openflow.WildcardNwProto | openflow.WildcardTpDst
		m.DlType = 0x0800
		m.NwProto = 6
		m.TpDst = uint16(9900 + i)
		if err := stack.Controller.SendFlowMod(sw.DPID, &openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, Priority: 250,
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}},
		}); err != nil {
			log.Fatalf("legosdn: staging transaction: %v", err)
		}
	}
	stack.NetLog.SetActive(nil)
	if err := stack.Controller.Barrier(sw.DPID); err != nil {
		log.Fatalf("legosdn: %v", err)
	}

	oldLeader := cluster.LeaderName()
	fmt.Printf("\nkilling leader %s with a journaled transaction still open ...\n", oldLeader)
	if err := cluster.KillLeader(); err != nil {
		log.Fatalf("legosdn: %v", err)
	}
	successor, err := cluster.WaitLeader(oldLeader, 30*time.Second)
	if err != nil {
		log.Fatalf("legosdn: failover never completed: %v", err)
	}
	fmt.Printf("RESULT: %s took over in %s (elections=%d, rolled back %d orphaned transaction(s), %d flow-mod(s))\n",
		cluster.LeaderName(), cluster.LastMTTR().Round(time.Millisecond),
		cluster.Elections(), cluster.State().RecoveredTxns(), cluster.State().RecoveredMods())

	before := delivered(n)
	gen.SendFlows(flows)
	settle(successor)
	fmt.Printf("\npost-failover traffic (%d flows): delivered %d frames via %s\n",
		flows, delivered(n)-before, cluster.LeaderName())

	fmt.Println("\nfinal flow-table sizes:")
	for _, s := range n.Switches() {
		fmt.Printf("  s%d: %d entries, %d packet-ins, %d flow-mods\n",
			s.DPID, s.Table().Len(), s.PacketIns.Load(), s.FlowModsRx.Load())
	}
}
