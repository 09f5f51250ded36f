package legosdn_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"legosdn/internal/appvisor"
	"legosdn/internal/checkpoint"
	"legosdn/internal/controller"
	"legosdn/internal/experiments"
	"legosdn/internal/flowtable"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/workload"
)

// Each table/figure benchmark regenerates its experiment and prints the
// rows once, so `go test -bench=.` reproduces the whole evaluation.
// cmd/legosdn-bench prints the same tables without the testing harness.

var printOnce sync.Map

func report(b *testing.B, t experiments.Table) {
	b.Helper()
	if _, dup := printOnce.LoadOrStore(t.ID, true); !dup {
		fmt.Println(t.Render())
	}
}

func BenchmarkTable1FateSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.Table1FateSharing())
	}
}

func BenchmarkTable2AppSurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.Table2AppSurvey())
	}
}

func BenchmarkFigure1ArchLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.Figure1ArchLatency(2000))
	}
}

func BenchmarkClaimBugCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimBugCorpus(50, 7))
	}
}

func BenchmarkClaimControlLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimControlLoop(20))
	}
}

func BenchmarkClaimNetLogRollback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimNetLogRollback([]int{1, 2, 4, 8, 16, 32, 64}))
	}
}

func BenchmarkClaimCrashPadRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimCrashPadRecovery(10))
	}
}

func BenchmarkClaimEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimEquivalence())
	}
}

func BenchmarkClaimUpgrade(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimUpgrade(6))
	}
}

func BenchmarkClaimAtomicUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimAtomicUpdate())
	}
}

func BenchmarkClaimCheckpointSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimCheckpointSweep([]int{1, 2, 4, 8, 16, 32}, 1000))
	}
}

func BenchmarkClaimCloneSwitchover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimCloneSwitchover(200))
	}
}

func BenchmarkClaimNVersion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimNVersion(120))
	}
}

func BenchmarkClaimMCS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimMCS(48))
	}
}

func BenchmarkClaimResourceLimits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimResourceLimits(300))
	}
}

func BenchmarkClaimInvariantEscalation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, experiments.ClaimInvariantEscalation())
	}
}

// --- Micro-benchmarks: the hot paths the tables are built from. ---

func BenchmarkOpenFlowEncodeFlowMod(b *testing.B) {
	fm := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 10,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}},
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = openflow.AppendMessage(buf[:0], fm)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenFlowDecodeFlowMod(b *testing.B) {
	fm := &openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FlowModAdd, Priority: 10,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 1}},
	}
	raw, _ := openflow.Encode(fm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openflow.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowTableLookup(b *testing.B) {
	ft := flowtable.New(nil)
	for i := 0; i < 256; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = uint16(i)
		ft.Apply(&openflow.FlowMod{Match: m, Command: openflow.FlowModAdd, Priority: uint16(i % 16),
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone})
	}
	p := openflow.PacketFields{InPort: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.Lookup(p, 64)
	}
}

func BenchmarkFrameRoundTrip(b *testing.B) {
	f := &netsim.Frame{
		DlSrc: netsim.HostMAC(1), DlDst: netsim.HostMAC(2),
		DlType: netsim.EtherTypeIPv4, NwProto: netsim.IPProtoTCP,
		NwSrc: netsim.HostIP(1), NwDst: netsim.HostIP(2), TpSrc: 1, TpDst: 80,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.ParseFrame(f.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppVisorEventRoundTrip(b *testing.B) {
	proxy, err := appvisor.NewProxy("bench", benchCtx{},
		appvisor.InProcessFactory(func() controller.App { return nopApp{} }, appvisor.StubOptions{}),
		appvisor.ProxyOptions{EventTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()
	ev := workload.PacketInEvents(1, 1, 4, 1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proxy.HandleEvent(nil, ev); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppVisorEventBatchRoundTrip(b *testing.B) {
	proxy, err := appvisor.NewProxy("bench", benchCtx{},
		appvisor.InProcessFactory(func() controller.App { return nopApp{} }, appvisor.StubOptions{}),
		appvisor.ProxyOptions{EventTimeout: 5 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	defer proxy.Close()
	evs := workload.PacketInEvents(16, 4, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := proxy.HandleEventBatch(nil, evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(evs)), "events/op")
}

func BenchmarkCheckpointSnapshotStore(b *testing.B) {
	store := checkpoint.NewStore(0)
	state := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Put("bench", uint64(i), state)
	}
}

func BenchmarkDataplaneForward(b *testing.B) {
	n := netsim.Linear(3, nil)
	h3 := n.Host("h3")
	for _, cfg := range []struct {
		dpid uint64
		out  uint16
	}{{1, 2}, {2, 2}, {3, 100}} {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardDlDst
		m.DlDst = h3.MAC
		n.Switch(cfg.dpid).Table().Apply(&openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, Priority: 10,
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: cfg.out}},
		})
	}
	h1 := n.Host("h1")
	frame := netsim.TCPFrame(h1, h3, 1, 80, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendFromHost("h1", frame)
	}
}

// nopApp does nothing, isolating the RPC cost.
type nopApp struct{}

func (nopApp) Name() string                                           { return "bench" }
func (nopApp) Subscriptions() []controller.EventKind                  { return controller.AllEventKinds() }
func (nopApp) HandleEvent(controller.Context, controller.Event) error { return nil }

// benchCtx is a no-op context for proxy benches.
type benchCtx struct{}

func (benchCtx) SendMessage(uint64, openflow.Message) error      { return nil }
func (benchCtx) SendFlowMod(uint64, *openflow.FlowMod) error     { return nil }
func (benchCtx) SendPacketOut(uint64, *openflow.PacketOut) error { return nil }
func (benchCtx) RequestStats(uint64, *openflow.StatsRequest) (*openflow.StatsReply, error) {
	return &openflow.StatsReply{}, nil
}
func (benchCtx) Barrier(uint64) error            { return nil }
func (benchCtx) Switches() []uint64              { return nil }
func (benchCtx) Ports(uint64) []openflow.PhyPort { return nil }
func (benchCtx) Topology() []controller.LinkInfo { return nil }
