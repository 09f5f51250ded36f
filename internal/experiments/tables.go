package experiments

import (
	"fmt"
	"strings"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/appvisor"
	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/crashpad"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/workload"
)

func newRegistryApp(name string) controller.App {
	app, err := apps.New(name)
	if err != nil {
		panic(err)
	}
	return app
}

// Table1FateSharing reproduces Table 1's point: in the monolithic
// stack, a failure anywhere in the stack takes the control plane down,
// while LegoSDN contains app failures. For each architecture it
// crashes the SDN-App layer and reports which components survive.
func Table1FateSharing() Table {
	t := Table{
		ID:    "T1",
		Title: "Fate sharing: SDN-App crash vs surviving components (paper Table 1)",
		Columns: []string{"architecture", "controller up", "bystander app up",
			"buggy app recovered", "new flows routed"},
		Notes: []string{
			"injects a deterministic crash into learning-switch; bystander is stats-collector",
			"monolithic reproduces FloodLight's unhandled-exception fate sharing (paper §2.1)",
		},
	}
	for _, mode := range []core.Mode{core.ModeMonolithic, core.ModeIsolated, core.ModeLegoSDN} {
		stack := core.NewStack(core.Config{Mode: mode})
		n := netsim.Single(3, nil)
		stack.AddApp(newPoisonLearningSwitch(6666))
		stack.AddApp(func() controller.App { return newRegistryApp("stats-collector") })
		connect(stack, n)

		// Healthy traffic, then the poisoned packet.
		sendTCP(n, "h1", "h2", 1000, 80)
		waitCond(2*time.Second, func() bool { return n.Host("h2").ReceivedCount() >= 1 })
		sendTCP(n, "h1", "h2", 9999, 6666)
		drainQuiesce(stack.Controller, 30*time.Millisecond)

		controllerUp := !stack.Controller.Crashed()
		bystanderUp := controllerUp && !stack.Controller.AppDisabled("stats-collector")
		recovered := controllerUp && !stack.Controller.AppDisabled("learning-switch")

		// New flow after the crash: does the control loop still work?
		sendTCP(n, "h2", "h3", 2000, 80) // unknown dst -> needs controller flood
		routed := waitCond(time.Second, func() bool { return n.Host("h3").ReceivedCount() >= 1 })

		t.AddRow(mode.String(), yesNo(controllerUp), yesNo(bystanderUp),
			yesNo(recovered), yesNo(routed))
		stack.Close()
	}
	return t
}

// Table2AppSurvey reproduces Table 2: the diverse app ecosystem runs
// unmodified under LegoSDN. Each survey app runs in a stub, processes
// live traffic and is probed for liveness.
func Table2AppSurvey() Table {
	t := Table{
		ID:    "T2",
		Title: "App survey: Table 2's ecosystem running unmodified in stubs",
		Columns: []string{"app", "paper analogue", "events relayed",
			"commands sent", "stateful (snapshots)", "unmodified"},
		Notes: []string{"every app is the same code the monolithic controller runs; only the hosting differs (§3.1)"},
	}
	analogue := map[string]string{
		"hub":             "Hub (bundled, §4.1)",
		"flooder":         "Flooder (bundled, §4.1)",
		"learning-switch": "LearningSwitch (bundled, §4.1)",
		"routing":         "RouteFlow (Table 2)",
		"flowscale":       "FlowScale (Table 2)",
		"firewall":        "BigTap (Table 2)",
		"stats-collector": "counter-store service (§4.1)",
		"spanning-tree":   "topology/STP module (FloodLight core)",
	}
	for _, name := range apps.Names() {
		stack := core.NewStack(core.Config{Mode: core.ModeLegoSDN})
		n := netsim.Single(4, nil)
		stack.AddApp(func() controller.App { return newRegistryApp(name) })
		connect(stack, n)
		// Traffic mix: a handful of flows plus a port flap.
		gen := workload.NewTrafficGen(n, 7)
		gen.SendFlows(12)
		drainQuiesce(stack.Controller, 30*time.Millisecond)

		proxy := stack.Proxy(name)
		var relayed, cmds uint64
		stateful := false
		if proxy != nil {
			relayed = proxy.EventsRelayed.Load()
			if _, err := proxy.Snapshot(); err == nil {
				stateful = true
			}
		}
		for _, sw := range n.Switches() {
			cmds += sw.FlowModsRx.Load()
		}
		t.AddRow(name, analogue[name], fmt.Sprint(relayed), fmt.Sprint(cmds),
			yesNo(stateful), "yes")
		stack.Close()
	}
	return t
}

// Figure1ArchLatency reproduces Figure 1's architectural comparison as
// the measurable quantity it implies: the per-event cost of the
// proxy/stub indirection, against direct in-process dispatch, plus the
// full Crash-Pad pipeline. It also verifies the §4.1 claim that
// message processing order is preserved.
func Figure1ArchLatency(events int) Table {
	t := Table{
		ID:    "F1",
		Title: "Figure 1: per-event dispatch cost by architecture",
		Columns: []string{"architecture", "events", "total", "per event",
			"vs monolithic", "order preserved"},
		Notes: []string{
			"AppVisor adds serialization + two UDP hops per event (§3.1); Crash-Pad adds a checkpoint per event (§3.3)",
			"the paper argues this latency is acceptable because the controller already slows flow setup ~4x (§3.1, citing DevoFlow)",
		},
	}
	trace := workload.PacketInEvents(events, 1, 8, 11)

	// Monolithic: direct call.
	mono := newRegistryApp("learning-switch")
	sink := &captureCtx{}
	start := time.Now()
	for _, ev := range trace {
		_ = mono.HandleEvent(sink, ev)
	}
	monoDur := time.Since(start)
	monoOrder := sink.orderSignature()

	// AppVisor: proxy + stub RPC.
	sink2 := &captureCtx{}
	proxy, err := appvisor.NewProxy("learning-switch", sink2,
		appvisor.InProcessFactory(func() controller.App { return newRegistryApp("learning-switch") },
			appvisor.StubOptions{}),
		appvisor.ProxyOptions{})
	if err != nil {
		panic(err)
	}
	start = time.Now()
	for _, ev := range trace {
		_ = proxy.HandleEvent(nil, ev)
	}
	isoDur := time.Since(start)
	isoOrder := sink2.orderSignature()

	// Full LegoSDN: Crash-Pad around the proxy (checkpoint every event).
	sink3 := &captureCtx{}
	proxy3, err := appvisor.NewProxy("learning-switch", sink3,
		appvisor.InProcessFactory(func() controller.App { return newRegistryApp("learning-switch") },
			appvisor.StubOptions{}),
		appvisor.ProxyOptions{})
	if err != nil {
		panic(err)
	}
	cp := crashpad.New(crashpad.Options{})
	start = time.Now()
	for _, ev := range trace {
		cp.RunEvent(proxy3, sink3, ev)
	}
	fullDur := time.Since(start)
	fullOrder := sink3.orderSignature()

	proxy.Close()
	proxy3.Close()

	perEvent := func(d time.Duration) time.Duration { return d / time.Duration(events) }
	ratio := func(d time.Duration) string {
		return fmt.Sprintf("%.1fx", float64(d)/float64(monoDur))
	}
	ordered := monoOrder == isoOrder && monoOrder == fullOrder
	t.AddRow("monolithic (direct call)", fmt.Sprint(events), monoDur.Round(time.Microsecond).String(),
		us(perEvent(monoDur)), "1.0x", yesNo(true))
	t.AddRow("appvisor (UDP proxy/stub)", fmt.Sprint(events), isoDur.Round(time.Microsecond).String(),
		us(perEvent(isoDur)), ratio(isoDur), yesNo(ordered))
	t.AddRow("legosdn (+ checkpoint/txn)", fmt.Sprint(events), fullDur.Round(time.Microsecond).String(),
		us(perEvent(fullDur)), ratio(fullDur), yesNo(ordered))
	return t
}

// captureCtx collects outbound messages and a signature of their order,
// so architectures can be compared for §4.1's "message processing order
// is identical" property. Reads return fixed values.
type captureCtx struct {
	msgs []string
}

func (c *captureCtx) SendMessage(dpid uint64, msg openflow.Message) error {
	b, err := openflow.Encode(msg)
	if err != nil {
		return err
	}
	if len(b) >= 8 {
		b[4], b[5], b[6], b[7] = 0, 0, 0, 0 // xids differ by design
	}
	c.msgs = append(c.msgs, fmt.Sprintf("%d|%x", dpid, b))
	return nil
}
func (c *captureCtx) SendFlowMod(d uint64, fm *openflow.FlowMod) error {
	return c.SendMessage(d, fm)
}
func (c *captureCtx) SendPacketOut(d uint64, po *openflow.PacketOut) error {
	return c.SendMessage(d, po)
}
func (c *captureCtx) RequestStats(uint64, *openflow.StatsRequest) (*openflow.StatsReply, error) {
	return &openflow.StatsReply{}, nil
}
func (c *captureCtx) Barrier(uint64) error            { return nil }
func (c *captureCtx) Switches() []uint64              { return []uint64{1} }
func (c *captureCtx) Ports(uint64) []openflow.PhyPort { return nil }
func (c *captureCtx) Topology() []controller.LinkInfo { return nil }

func (c *captureCtx) orderSignature() string {
	return strings.Join(c.msgs, "\n")
}
