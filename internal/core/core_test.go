package core

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"legosdn/internal/apps"
	"legosdn/internal/controller"
	"legosdn/internal/crashpad"
	"legosdn/internal/durable"
	"legosdn/internal/faultinject"
	"legosdn/internal/flightrec"
	"legosdn/internal/invariant"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
	"legosdn/internal/trace"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// crashBug returns a learning switch that panics on TCP port `port`
// traffic — a deterministic, input-triggered bug.
func buggyLearningSwitch(port uint16) func() controller.App {
	return func() controller.App {
		return faultinject.Wrap(apps.NewLearningSwitch(), faultinject.Bug{
			ID:          1,
			Severity:    faultinject.Catastrophic,
			TriggerKind: controller.EventPacketIn,
			Description: "poison port",
			// TriggerEvery=0 -> 1; use BadRule-free crash triggered by a
			// dedicated filter below instead.
		}, 1)
	}
}

// portPoisonApp crashes only on packets to a poisoned TCP port. Unlike
// the generic faultinject wrapper (which triggers on every Nth event),
// this models an input-dependent bug: recovery can ignore the poisoned
// event and keep serving the rest.
type portPoisonApp struct {
	*apps.LearningSwitch
	poison uint16
}

func newPortPoisonApp(poison uint16) func() controller.App {
	return func() controller.App {
		return &portPoisonApp{LearningSwitch: apps.NewLearningSwitch(), poison: poison}
	}
}

func (a *portPoisonApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		if f, err := netsim.ParseFrame(pin.Data); err == nil && f.TpDst == a.poison {
			panic("portPoisonApp: packet to poisoned port")
		}
	}
	return a.LearningSwitch.HandleEvent(ctx, ev)
}

func TestMonolithicFateSharingEndToEnd(t *testing.T) {
	stack := NewStack(Config{Mode: ModeMonolithic})
	defer stack.Close()
	stack.AddApp(newPortPoisonApp(6666))

	n := netsim.Single(3, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")

	// Healthy traffic first.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1000, 80, nil))
	waitFor(t, "healthy delivery", func() bool { return h2.ReceivedCount() >= 1 })

	// Poisoned packet: the whole control plane dies.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1000, 6666, nil))
	waitFor(t, "controller crash", stack.Controller.Crashed)

	// New flows now die on table miss: the network is headless.
	h3 := n.Host("h3")
	before := h3.ReceivedCount()
	n.SendFromHost("h1", netsim.TCPFrame(h1, h3, 2000, 80, nil))
	time.Sleep(30 * time.Millisecond)
	if h3.ReceivedCount() != before {
		t.Fatal("headless network delivered a new flow")
	}
}

func TestLegoSDNSurvivesSameBug(t *testing.T) {
	var tickets []*crashpad.Ticket
	stack := NewStack(Config{
		Mode:     ModeLegoSDN,
		OnTicket: func(tk *crashpad.Ticket) { tickets = append(tickets, tk) },
	})
	defer stack.Close()
	if err := stack.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}

	n := netsim.Single(3, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")

	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1000, 80, nil))
	waitFor(t, "healthy delivery", func() bool { return h2.ReceivedCount() >= 1 })

	// The same poisoned packet: Crash-Pad absorbs it.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1000, 6666, nil))
	waitFor(t, "recovery", func() bool { return stack.CrashPad.Recoveries.Load() >= 1 })

	if stack.Controller.Crashed() {
		t.Fatal("controller died despite LegoSDN")
	}
	if stack.Controller.AppDisabled("learning-switch") {
		t.Fatal("app quarantined despite recovery")
	}

	// The app still works: reply traffic gets a rule installed.
	n.SendFromHost("h2", netsim.TCPFrame(h2, h1, 80, 1000, nil))
	waitFor(t, "post-recovery delivery", func() bool { return h1.ReceivedCount() >= 1 })

	if len(tickets) != 1 {
		t.Fatalf("tickets = %d", len(tickets))
	}
	tk := tickets[0]
	if tk.Outcome != crashpad.OutcomeRecovered && tk.Outcome != crashpad.OutcomeFallback {
		t.Fatalf("ticket outcome %v", tk.Outcome)
	}
	if !strings.Contains(tk.PanicValue, "poisoned port") {
		t.Fatalf("panic value %q", tk.PanicValue)
	}
	if tk.Stack == "" {
		t.Fatal("ticket missing stack trace")
	}
}

func TestIsolatedModeContainsButDoesNotRecover(t *testing.T) {
	stack := NewStack(Config{Mode: ModeIsolated})
	defer stack.Close()
	stack.AddApp(newPortPoisonApp(6666))
	stack.AddApp(func() controller.App { return apps.NewStatsCollector() })

	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 6666, nil))

	waitFor(t, "app quarantine", func() bool { return stack.Controller.AppDisabled("learning-switch") })
	if stack.Controller.Crashed() {
		t.Fatal("controller should survive in isolated mode")
	}
	// The other app keeps running.
	if stack.Controller.AppDisabled("stats-collector") {
		t.Fatal("bystander app quarantined")
	}
}

// multiRuleApp installs 3 rules per PacketIn then crashes on the
// poisoned port AFTER installing 2 of them — the §3.4 atomic-update
// ambiguity.
type multiRuleApp struct {
	poison uint16
	count  uint16
}

func newMultiRuleApp(poison uint16) func() controller.App {
	return func() controller.App { return &multiRuleApp{poison: poison} }
}

func (a *multiRuleApp) Name() string { return "multirule" }
func (a *multiRuleApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *multiRuleApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin := ev.Message.(*openflow.PacketIn)
	f, err := netsim.ParseFrame(pin.Data)
	if err != nil {
		return nil
	}
	poisoned := f.TpDst == a.poison
	for i := uint16(0); i < 3; i++ {
		if poisoned && i == 2 {
			panic("multiRuleApp: died mid-transaction")
		}
		a.count++
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildcardTpSrc
		m.TpSrc = a.count
		if err := ctx.SendFlowMod(ev.DPID, &openflow.FlowMod{
			Match: m, Command: openflow.FlowModAdd, Priority: 7,
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
		}); err != nil {
			return err
		}
	}
	return nil
}
func (a *multiRuleApp) Snapshot() ([]byte, error) {
	return []byte{byte(a.count >> 8), byte(a.count)}, nil
}
func (a *multiRuleApp) Restore(b []byte) error {
	a.count = uint16(b[0])<<8 | uint16(b[1])
	return nil
}

func TestAtomicUpdateRollsBackPartialTransaction(t *testing.T) {
	stack := NewStack(Config{Mode: ModeLegoSDN})
	defer stack.Close()
	stack.AddApp(newMultiRuleApp(6666))

	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	sw := n.Switch(1)
	h1, h2 := n.Host("h1"), n.Host("h2")

	// Healthy event: all 3 rules commit.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	waitFor(t, "3 committed rules", func() bool { return sw.Table().Len() == 3 })
	baseline := sw.Table().Fingerprint()

	// Poisoned event: 2 of 3 rules reach the switch, then the app dies.
	// NetLog must remove exactly those 2.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 9999, 6666, nil))
	waitFor(t, "recovery", func() bool { return stack.CrashPad.Recoveries.Load() >= 1 })
	waitFor(t, "rollback to baseline", func() bool { return sw.Table().Fingerprint() == baseline })
	if stack.NetLog.Rollbacks.Load() == 0 || stack.NetLog.RolledBackMods.Load() != 2 {
		t.Fatalf("netlog rollbacks=%d mods=%d, want 1/2", stack.NetLog.Rollbacks.Load(), stack.NetLog.RolledBackMods.Load())
	}
}

func TestByzantineRuleDetectedAndRolledBack(t *testing.T) {
	n := netsim.Single(2, nil)
	suite := invariant.NewSuite(n)
	stack := NewStack(Config{
		Mode:    ModeLegoSDN,
		Checker: suite.CrashPadChecker(nil),
	})
	defer stack.Close()

	// App that installs a looping rule on the first packet-in.
	stack.AddApp(func() controller.App {
		return faultinject.Wrap(apps.NewLearningSwitch(), faultinject.Bug{
			Severity:    faultinject.ByzantineSev,
			TriggerKind: controller.EventPacketIn,
		}, 1)
	})
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))

	waitFor(t, "byzantine detection", func() bool { return stack.CrashPad.ByzantineSeen.Load() >= 1 })
	// The looping rule must be gone from the switch.
	waitFor(t, "bad rule rollback", func() bool {
		for _, e := range n.Switch(1).Table().Entries() {
			if e.Priority == 999 {
				return false
			}
		}
		return true
	})
	if stack.Controller.Crashed() {
		t.Fatal("controller died")
	}
}

func TestNoCompromiseInvariantShutsNetworkDown(t *testing.T) {
	n := netsim.Single(2, nil)
	suite := invariant.NewSuite(n)
	var shutdownFired atomic.Bool
	stack := NewStack(Config{
		Mode:    ModeLegoSDN,
		Checker: suite.CrashPadChecker(func(invariant.Violation) bool { return true }),
		OnNetworkShutdown: func([]crashpad.Violation) {
			shutdownFired.Store(true)
			for _, sw := range n.Switches() {
				n.SetSwitchDown(sw.DPID, true)
			}
		},
	})
	defer stack.Close()
	stack.AddApp(func() controller.App {
		return faultinject.Wrap(apps.NewLearningSwitch(), faultinject.Bug{
			Severity:    faultinject.ByzantineSev,
			TriggerKind: controller.EventPacketIn,
		}, 1)
	})
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))

	waitFor(t, "shutdown escalation", shutdownFired.Load)
	waitFor(t, "network down", func() bool { return n.Switch(1).Down() })
}

func TestUpgradeRetainsStateViaCheckpointStore(t *testing.T) {
	store := NewStack(Config{Mode: ModeLegoSDN}).Store // grab a store shape
	_ = store
	shared := NewStack(Config{Mode: ModeLegoSDN})
	shared.Close()

	// Stack 1: learn some state, snapshot, "upgrade" (close).
	st1 := NewStack(Config{Mode: ModeLegoSDN})
	st1.AddApp(func() controller.App { return apps.NewLearningSwitch() })
	n := netsim.Single(2, nil)
	if err := st1.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h2", netsim.TCPFrame(h2, h1, 80, 1, nil))
	waitFor(t, "learning", func() bool {
		snap, err := st1.Proxy("learning-switch").Snapshot()
		return err == nil && len(snap) > 20
	})
	if err := st1.Snapshot("learning-switch"); err != nil {
		t.Fatal(err)
	}
	persisted := st1.Store
	st1.Close()

	// Stack 2 (post-upgrade) with the same store: state is restored.
	st2 := NewStack(Config{Mode: ModeLegoSDN, Store: persisted})
	defer st2.Close()
	st2.AddApp(func() controller.App { return apps.NewLearningSwitch() })
	snap, err := st2.Proxy("learning-switch").Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) <= 20 {
		t.Fatalf("restored state too small (%d bytes): upgrade lost state", len(snap))
	}
}

func TestDelayBufferModeRecovers(t *testing.T) {
	stack := NewStack(Config{Mode: ModeLegoSDN, UseDelayBuffer: true})
	defer stack.Close()
	stack.AddApp(newMultiRuleApp(6666))
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	sw := n.Switch(1)
	h1, h2 := n.Host("h1"), n.Host("h2")

	// Healthy event flushes 3 rules.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	waitFor(t, "flush", func() bool { return sw.Table().Len() == 3 })

	// Poisoned event: held rules are discarded, nothing reaches the
	// switch, app recovers.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 9999, 6666, nil))
	waitFor(t, "recovery", func() bool { return stack.CrashPad.Recoveries.Load() >= 1 })
	if sw.Table().Len() != 3 {
		t.Fatalf("partial rules leaked: len=%d", sw.Table().Len())
	}
	if stack.DelayBuf.DiscardedMods.Load() != 2 {
		t.Fatalf("discarded = %d, want 2", stack.DelayBuf.DiscardedMods.Load())
	}
}

func TestModeString(t *testing.T) {
	if ModeMonolithic.String() != "monolithic" || ModeLegoSDN.String() != "legosdn" {
		t.Fatal("mode names changed")
	}
}

// corruptingApp is the §5 multi-event scenario: a packet to port 6000
// silently corrupts state; every later packet-in crashes. The
// corruption is inside the snapshot, so shallow restore cannot shed it.
type corruptingApp struct {
	corrupt bool
	handled int
}

func newCorruptingApp() controller.App { return &corruptingApp{} }

func (a *corruptingApp) Name() string { return "corrupting" }
func (a *corruptingApp) Subscriptions() []controller.EventKind {
	return []controller.EventKind{controller.EventPacketIn}
}
func (a *corruptingApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	pin := ev.Message.(*openflow.PacketIn)
	f, err := netsim.ParseFrame(pin.Data)
	if err != nil {
		return nil
	}
	if a.corrupt {
		panic("corruptingApp: poisoned state")
	}
	if f.TpDst == 6000 {
		a.corrupt = true
		return nil
	}
	a.handled++
	return nil
}
func (a *corruptingApp) Snapshot() ([]byte, error) {
	b := []byte{0, byte(a.handled)}
	if a.corrupt {
		b[0] = 1
	}
	return b, nil
}
func (a *corruptingApp) Restore(state []byte) error {
	a.corrupt = state[0] == 1
	a.handled = int(state[1])
	return nil
}

func TestDeepRecoveryEndToEnd(t *testing.T) {
	stack := NewStack(Config{Mode: ModeLegoSDN})
	defer stack.Close()
	stack.AddApp(newCorruptingApp)
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")

	// Healthy traffic, then the silent poison, then the crash storm.
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 2, 6000, nil)) // poison
	for i := 0; i < 5; i++ {
		n.SendFromHost("h1", netsim.TCPFrame(h1, h2, uint16(10+i), 80, nil))
	}
	waitFor(t, "deep recovery", func() bool { return stack.CrashPad.DeepRecoveries.Load() >= 1 })
	if stack.Controller.Crashed() || stack.Controller.AppDisabled("corrupting") {
		t.Fatal("app not live after deep recovery")
	}
	// Post-recovery traffic processes without further crashes.
	crashes := stack.CrashPad.CrashesSeen.Load()
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 99, 80, nil))
	waitFor(t, "clean post-recovery event", func() bool {
		return stack.Controller.Processed.Load() > 0 && stack.CrashPad.CrashesSeen.Load() == crashes
	})
	time.Sleep(30 * time.Millisecond)
	if stack.CrashPad.CrashesSeen.Load() != crashes {
		t.Fatal("crash storm continued after deep recovery")
	}
}

func TestSubprocessStubMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	bin := filepath.Join(t.TempDir(), "legosdn-stub")
	build := exec.Command("go", "build", "-o", bin, "legosdn/cmd/legosdn-stub")
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	build.Dir = filepath.Dir(string(out[:len(out)-1]))
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building stub: %v\n%s", err, msg)
	}

	stack := NewStack(Config{Mode: ModeLegoSDN, StubBinary: bin})
	defer stack.Close()
	if err := stack.AddApp(func() controller.App { return apps.NewLearningSwitch() }); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	// A full control loop through a real OS-process stub.
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 80, nil))
	n.SendFromHost("h2", netsim.TCPFrame(h2, h1, 80, 1, nil))
	waitFor(t, "rule learned through subprocess stub", func() bool {
		return n.Switch(1).Table().Len() >= 1
	})
	if !stack.Proxy("learning-switch").StubUp() {
		t.Fatal("subprocess stub not up")
	}
}

func TestStackWithOperatorPolicies(t *testing.T) {
	policies, err := crashpad.ParsePolicies(`
default absolute
app learning-switch default no
`)
	if err != nil {
		t.Fatal(err)
	}
	stack := NewStack(Config{Mode: ModeLegoSDN, Policies: policies})
	defer stack.Close()
	stack.AddApp(newPortPoisonApp(6666))
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 9999, 6666, nil))
	// No-compromise policy: the app stays down instead of recovering.
	waitFor(t, "policy-driven quarantine", func() bool {
		return stack.Controller.AppDisabled("learning-switch")
	})
	if stack.CrashPad.Recoveries.Load() != 0 {
		t.Fatal("no-compromise policy was ignored")
	}
	if stack.Controller.Crashed() {
		t.Fatal("controller must survive even under no-compromise")
	}
}

// TestStackMetricNamesUnique builds a full LegoSDN stack (every layer
// instrumenting the same registry, including the flight recorder and
// the autopsy store) under a strict registry: any two layers claiming
// the same metric name with different instruments panics the build.
// This is the programmatic half of CI's duplicate-metric gate.
func TestStackMetricNamesUnique(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.SetStrict(true)
	stack := NewStack(Config{
		Mode:    ModeLegoSDN,
		Metrics: reg,
		Tracer:  trace.New(trace.Options{}),
	})
	defer stack.Close()
	if err := stack.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	if dups := reg.Duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate metric registrations: %v", dups)
	}
}

// TestStackFlightRecorderAlwaysOn: the recorder cannot be configured
// away — a default stack records dispatches without any observability
// opt-in, so post-crash forensics never depend on foresight.
func TestStackFlightRecorderAlwaysOn(t *testing.T) {
	stack := NewStack(Config{Mode: ModeLegoSDN})
	defer stack.Close()
	if stack.Flight == nil {
		t.Fatal("Stack.Flight nil: flight recorder must default on")
	}
	if stack.Autopsies == nil {
		t.Fatal("Stack.Autopsies nil: autopsy store must default on")
	}
	if err := stack.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	n := netsim.Single(2, nil)
	if err := stack.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	recs := stack.Flight.LayerRecords(flightrec.LayerController, 10)
	if len(recs) == 0 {
		t.Fatal("no controller flight records after switch-up dispatches")
	}
}

// TestRestartKeepsPredecessorsAutopsies: incarnation A recovers a
// crashed app and then dies with a journaled transaction open;
// incarnation B, on the same state directory, rolls the orphan back.
// Both autopsy reports stay in the log.
func TestRestartKeepsPredecessorsAutopsies(t *testing.T) {
	dir := t.TempDir()
	n := netsim.Single(2, nil)

	stA, err := durable.OpenState(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stackA := NewStack(Config{Mode: ModeLegoSDN, Durable: stA, HeartbeatTimeout: -1})
	if err := stackA.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	if err := stackA.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}
	h1, h2 := n.Host("h1"), n.Host("h2")
	n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1000, 6666, nil))
	waitFor(t, "crash autopsy", func() bool { return stackA.Autopsies.Persisted.Load() >= 1 })

	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardTpDst
	m.TpDst = 9100
	tx := stackA.NetLog.Begin()
	stackA.NetLog.SetActive(tx)
	err = stackA.Controller.SendFlowMod(1, &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
	})
	stackA.NetLog.SetActive(nil)
	if err != nil {
		t.Fatal(err)
	}
	stackA.Close() // killed mid-transaction: nothing resolves tx
	_ = stA.Close()

	stB, err := durable.OpenState(dir, 0, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()
	stackB := NewStack(Config{Mode: ModeLegoSDN, Durable: stB, HeartbeatTimeout: -1})
	defer stackB.Close()
	if err := stackB.AddApp(newPortPoisonApp(6666)); err != nil {
		t.Fatal(err)
	}
	if err := stackB.ConnectNetwork(n); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "autopsies", "autopsies.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var triggers []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		var a flightrec.Autopsy
		if err := json.Unmarshal([]byte(line), &a); err != nil || !strings.HasSuffix(line, "\n") {
			t.Fatalf("autopsy log line %q: %v", line, err)
		}
		triggers = append(triggers, a.Trigger)
	}
	if want := []string{"app-crash", "durable-recovery"}; !slices.Equal(triggers, want) {
		t.Fatalf("autopsy log holds triggers %v, want %v", triggers, want)
	}
}
