package netlog

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/flowtable"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// rig is a controller + single-switch network + installed NetLog.
type rig struct {
	c   *controller.Controller
	n   *netsim.Network
	m   *Manager
	sw  *netsim.Switch
	clk *netsim.FakeClock
}

func newRig(t *testing.T, hosts int) *rig {
	t.Helper()
	clk := netsim.NewFakeClock(time.Unix(10000, 0))
	c := controller.New(controller.Config{})
	t.Cleanup(c.Stop)
	n := netsim.Single(hosts, clk)
	m := NewManager(c, clk)
	m.Install(c)
	for _, sw := range n.Switches() {
		ctrlSide, swSide := openflow.Pipe()
		if err := sw.Attach(swSide); err != nil {
			t.Fatal(err)
		}
		if err := c.AttachSwitchConn(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
	drainDispatch(t, c, uint64(len(n.Switches())))
	return &rig{c: c, n: n, m: m, sw: n.Switch(1), clk: clk}
}

// drainDispatch waits until the controller has dispatched at least n
// events, so queued SwitchUp events cannot race the test's own sends.
func drainDispatch(t testing.TB, c *controller.Controller, n uint64) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for c.Dispatched.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher stuck at %d events, want %d", c.Dispatched.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rig) mustSend(t *testing.T, fm *openflow.FlowMod) {
	t.Helper()
	if err := r.c.SendFlowMod(1, fm); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) barrier(t *testing.T) {
	t.Helper()
	if err := r.c.Barrier(1); err != nil {
		t.Fatal(err)
	}
}

func addPort(inPort uint16, prio uint16, out uint16) *openflow.FlowMod {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildcardInPort
	m.InPort = inPort
	return &openflow.FlowMod{
		Match: m, Command: openflow.FlowModAdd, Priority: prio,
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: out}},
	}
}

func TestTxnCommit(t *testing.T) {
	r := newRig(t, 2)
	tx := r.m.Begin()
	r.m.SetActive(tx)
	for i := uint16(1); i <= 3; i++ {
		r.mustSend(t, addPort(i, 10, 100+i))
	}
	r.m.SetActive(nil)
	if tx.Ops() != 3 {
		t.Fatalf("journal ops = %d", tx.Ops())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != TxnCommitted {
		t.Fatal("state should be committed")
	}
	if got := r.sw.Table().Len(); got != 3 {
		t.Fatalf("switch table len = %d, want 3", got)
	}
	// Closed transactions reject further transitions.
	if err := tx.Abort(); err != ErrTxnClosed {
		t.Fatalf("abort after commit = %v", err)
	}
	if err := tx.Commit(); err != ErrTxnClosed {
		t.Fatalf("double commit = %v", err)
	}
}

func TestTxnAbortUndoesAdds(t *testing.T) {
	r := newRig(t, 2)
	before := r.sw.Table().Fingerprint()
	tx := r.m.Begin()
	r.m.SetActive(tx)
	for i := uint16(1); i <= 5; i++ {
		r.mustSend(t, addPort(i, 10, 200))
	}
	r.m.SetActive(nil)
	r.barrier(t)
	if r.sw.Table().Len() != 5 {
		t.Fatal("adds never reached the switch")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.sw.Table().Fingerprint(); got != before {
		t.Fatalf("rollback left residue:\n%s", got)
	}
	if r.m.ShadowFingerprint(1) != before {
		t.Fatal("shadow diverged from switch")
	}
}

func TestTxnAbortRestoresOverwrittenAndDeleted(t *testing.T) {
	r := newRig(t, 2)
	// Committed baseline: three rules.
	r.mustSend(t, addPort(1, 10, 101))
	r.mustSend(t, addPort(2, 10, 102))
	r.mustSend(t, addPort(3, 20, 103))
	r.barrier(t)
	before := r.sw.Table().Fingerprint()

	tx := r.m.Begin()
	r.m.SetActive(tx)
	// Overwrite rule 1 (same match+prio, new action).
	r.mustSend(t, addPort(1, 10, 999))
	// Modify rule 2's actions.
	fm2 := addPort(2, 10, 888)
	fm2.Command = openflow.FlowModModifyStrict
	r.mustSend(t, fm2)
	// Delete rule 3.
	del := addPort(3, 20, 0)
	del.Command = openflow.FlowModDeleteStrict
	del.Actions = nil
	r.mustSend(t, del)
	// And add a brand-new rule 4.
	r.mustSend(t, addPort(4, 30, 104))
	r.m.SetActive(nil)
	r.barrier(t)
	if r.sw.Table().Fingerprint() == before {
		t.Fatal("transaction had no visible effect; test is vacuous")
	}

	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := r.sw.Table().Fingerprint(); got != before {
		t.Fatalf("rollback mismatch:\n got:\n%s\nwant:\n%s", got, before)
	}
	if r.m.Rollbacks.Load() != 1 || r.m.RolledBackMods.Load() == 0 {
		t.Fatalf("rollback counters: %d/%d", r.m.Rollbacks.Load(), r.m.RolledBackMods.Load())
	}
}

func TestAbortRestoresCountersViaCache(t *testing.T) {
	r := newRig(t, 2)
	h1, h2 := r.n.Host("h1"), r.n.Host("h2")
	// Committed rule forwarding h1->h2 traffic.
	fm := addPort(100, 10, 101) // host port base is 100 in netsim.Single
	r.mustSend(t, fm)
	r.barrier(t)
	// Pass traffic to accumulate counters.
	for i := 0; i < 7; i++ {
		r.n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, []byte("xx")))
	}

	tx := r.m.Begin()
	r.m.SetActive(tx)
	del := addPort(100, 10, 0)
	del.Command = openflow.FlowModDeleteStrict
	del.Actions = nil
	r.mustSend(t, del)
	r.m.SetActive(nil)
	r.barrier(t)
	if r.sw.Table().Len() != 0 {
		t.Fatal("delete never landed")
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if r.sw.Table().Len() != 1 {
		t.Fatal("rollback did not restore the entry")
	}
	if r.m.CounterCacheSize() != 1 {
		t.Fatalf("counter cache size = %d", r.m.CounterCacheSize())
	}

	// Stats replies must show the pre-rollback counters.
	reply, err := r.c.RequestStats(1, &openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Flows) != 1 {
		t.Fatalf("flows = %d", len(reply.Flows))
	}
	if got := reply.Flows[0].PacketCount; got != 7 {
		t.Fatalf("rewritten packet count = %d, want 7", got)
	}
	// More traffic accumulates on top of the cached base.
	for i := 0; i < 3; i++ {
		r.n.SendFromHost("h1", netsim.TCPFrame(h1, h2, 1, 2, []byte("xx")))
	}
	reply, err = r.c.RequestStats(1, &openflow.StatsRequest{StatsType: openflow.StatsTypeFlow})
	if err != nil {
		t.Fatal(err)
	}
	if got := reply.Flows[0].PacketCount; got != 10 {
		t.Fatalf("packet count after more traffic = %d, want 10", got)
	}
}

func TestAbortPreservesHardTimeoutBudget(t *testing.T) {
	r := newRig(t, 2)
	fm := addPort(1, 10, 101)
	fm.HardTimeout = 10
	r.mustSend(t, fm)
	r.barrier(t)

	r.clk.Advance(4 * time.Second)
	tx := r.m.Begin()
	r.m.SetActive(tx)
	del := addPort(1, 10, 0)
	del.Command = openflow.FlowModDeleteStrict
	del.Actions = nil
	r.mustSend(t, del)
	r.m.SetActive(nil)
	r.barrier(t)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	entries := r.sw.Table().Entries()
	if len(entries) != 1 {
		t.Fatal("entry not restored")
	}
	if got := entries[0].HardTimeout; got != 6 {
		t.Fatalf("restored hard timeout = %d, want 6 (10 - 4 elapsed)", got)
	}
	// The restored entry must still expire on schedule.
	r.clk.Advance(7 * time.Second)
	r.n.Tick()
	if r.sw.Table().Len() != 0 {
		t.Fatal("restored entry never expired")
	}
}

func TestFlowRemovedKeepsShadowHonest(t *testing.T) {
	r := newRig(t, 2)
	fm := addPort(1, 10, 101)
	fm.IdleTimeout = 2
	fm.Flags = openflow.FlowModFlagSendFlowRem
	r.mustSend(t, fm)
	r.barrier(t)
	if len(r.m.ShadowEntries(1)) != 1 {
		t.Fatal("shadow missed the add")
	}
	r.clk.Advance(3 * time.Second)
	r.n.Tick()
	deadline := time.Now().Add(2 * time.Second)
	for len(r.m.ShadowEntries(1)) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("shadow never observed the expiry")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCounterEvictionOnRealDelete(t *testing.T) {
	r := newRig(t, 2)
	r.mustSend(t, addPort(1, 10, 101))
	r.barrier(t)
	tx := r.m.Begin()
	r.m.SetActive(tx)
	del := addPort(1, 10, 0)
	del.Command = openflow.FlowModDeleteStrict
	r.mustSend(t, del)
	r.m.SetActive(nil)
	tx.Abort()
	// Cache may hold an adjustment (zero counters skip it); force one.
	sh := r.m.shardOf(1)
	sh.mu.Lock()
	sh.counters[counterKey{1, del.Match.Normalize(), 10}] = counterAdjust{packets: 5}
	sh.mu.Unlock()

	// A committed (non-transactional) delete must evict the cache entry.
	del2 := addPort(1, 10, 0)
	del2.Command = openflow.FlowModDeleteStrict
	r.mustSend(t, del2)
	r.barrier(t)
	if r.m.CounterCacheSize() != 0 {
		t.Fatalf("cache size = %d after real delete", r.m.CounterCacheSize())
	}
}

func TestSwitchChurnClearsShadow(t *testing.T) {
	r := newRig(t, 2)
	r.mustSend(t, addPort(1, 10, 101))
	r.barrier(t)
	if len(r.m.ShadowEntries(1)) != 1 {
		t.Fatal("shadow missing entry")
	}
	r.n.SetSwitchDown(1, true)
	deadline := time.Now().Add(2 * time.Second)
	for len(r.m.ShadowEntries(1)) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("switch-down never cleared the shadow")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDelayBufferHoldFlushDiscard(t *testing.T) {
	clk := netsim.NewFakeClock(time.Unix(0, 0))
	c := controller.New(controller.Config{})
	defer c.Stop()
	n := netsim.Single(2, clk)
	db := NewDelayBuffer(c)
	c.AddOutboundHook(db.Hook())
	for _, sw := range n.Switches() {
		ctrlSide, swSide := openflow.Pipe()
		sw.Attach(swSide)
		if err := c.AttachSwitchConn(ctrlSide); err != nil {
			t.Fatal(err)
		}
	}
	sw := n.Switch(1)

	// Held messages do not reach the switch.
	db.BeginHold()
	c.SendFlowMod(1, addPort(1, 10, 101))
	c.SendFlowMod(1, addPort(2, 10, 102))
	c.Barrier(1)
	if sw.Table().Len() != 0 || db.Held() != 2 {
		t.Fatalf("held=%d len=%d", db.Held(), sw.Table().Len())
	}
	// Flush releases them in order.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Barrier(1)
	if sw.Table().Len() != 2 || db.FlushedMods.Load() != 2 {
		t.Fatalf("flush failed: len=%d flushed=%d", sw.Table().Len(), db.FlushedMods.Load())
	}

	// Discard drops the next batch.
	db.BeginHold()
	c.SendFlowMod(1, addPort(3, 10, 103))
	db.Discard()
	c.Barrier(1)
	if sw.Table().Len() != 2 || db.DiscardedMods.Load() != 1 {
		t.Fatalf("discard failed: len=%d discarded=%d", sw.Table().Len(), db.DiscardedMods.Load())
	}
	// After the hold, messages flow directly.
	c.SendFlowMod(1, addPort(4, 10, 104))
	c.Barrier(1)
	if sw.Table().Len() != 3 {
		t.Fatal("post-hold message blocked")
	}
}

func TestRewriteStatsUnit(t *testing.T) {
	m := NewManager(nil, nil)
	match := openflow.MatchAll()
	m.shardOf(1).counters[counterKey{1, match.Normalize(), 5}] = counterAdjust{packets: 100, bytes: 1000}
	reply := &openflow.StatsReply{
		StatsType: openflow.StatsTypeFlow,
		Flows: []openflow.FlowStatsEntry{
			{Match: match, Priority: 5, PacketCount: 1, ByteCount: 10},
			{Match: match, Priority: 6, PacketCount: 2, ByteCount: 20},
		},
	}
	m.RewriteStats(1, reply)
	if reply.Flows[0].PacketCount != 101 || reply.Flows[0].ByteCount != 1010 {
		t.Fatalf("adjusted flow wrong: %+v", reply.Flows[0])
	}
	if reply.Flows[1].PacketCount != 2 {
		t.Fatalf("unrelated flow touched: %+v", reply.Flows[1])
	}
	// Non-flow replies untouched.
	port := &openflow.StatsReply{StatsType: openflow.StatsTypePort}
	m.RewriteStats(1, port)
}

// Property: any transaction of random FlowMods, aborted, is the
// identity on switch rule state.
func TestQuickAbortIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clk := flowtable.NewFakeClock(time.Unix(5000, 0))
		c := controller.New(controller.Config{})
		defer c.Stop()
		n := netsim.Single(2, clk)
		m := NewManager(c, clk)
		m.Install(c)
		for _, sw := range n.Switches() {
			ctrlSide, swSide := openflow.Pipe()
			sw.Attach(swSide)
			if err := c.AttachSwitchConn(ctrlSide); err != nil {
				return false
			}
		}
		drainDispatch(t, c, uint64(len(n.Switches())))
		sw := n.Switch(1)
		// Committed baseline of random adds.
		for i := 0; i < 4; i++ {
			c.SendFlowMod(1, addPort(uint16(r.Intn(6)), uint16(5+r.Intn(3)), uint16(100+r.Intn(4))))
		}
		c.Barrier(1)
		before := sw.Table().Fingerprint()

		tx := m.Begin()
		m.SetActive(tx)
		for i := 0; i < 6; i++ {
			fm := addPort(uint16(r.Intn(6)), uint16(5+r.Intn(3)), uint16(100+r.Intn(4)))
			switch r.Intn(4) {
			case 1:
				fm.Command = openflow.FlowModModifyStrict
			case 2:
				fm.Command = openflow.FlowModDeleteStrict
				fm.Actions = nil
			case 3:
				fm.Command = openflow.FlowModDelete
				fm.Actions = nil
			}
			c.SendFlowMod(1, fm)
		}
		m.SetActive(nil)
		c.Barrier(1)
		if err := tx.Abort(); err != nil {
			return false
		}
		return sw.Table().Fingerprint() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestShadowResyncsOnReconnect(t *testing.T) {
	r := newRig(t, 2)
	// Committed state the switch retains across a control-channel loss.
	r.mustSend(t, addPort(1, 10, 101))
	r.mustSend(t, addPort(2, 20, 102))
	r.barrier(t)

	// Sever and re-establish the control channel: the shadow clears on
	// SwitchDown and must rebuild from flow stats on SwitchUp.
	r.n.Switch(1).Detach()
	deadline := time.Now().Add(3 * time.Second)
	for len(r.m.ShadowEntries(1)) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("shadow never cleared on disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	ctrlSide, swSide := openflow.Pipe()
	if err := r.n.Switch(1).Attach(swSide); err != nil {
		t.Fatal(err)
	}
	if err := r.c.AttachSwitchConn(ctrlSide); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for len(r.m.ShadowEntries(1)) != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("shadow resync incomplete: %d entries", len(r.m.ShadowEntries(1)))
		}
		time.Sleep(time.Millisecond)
	}
	// The resynced shadow mirrors the switch's semantic rule state.
	if r.m.ShadowFingerprint(1) != r.sw.Table().Fingerprint() {
		t.Fatalf("shadow diverged after resync:\n%s\nvs\n%s",
			r.m.ShadowFingerprint(1), r.sw.Table().Fingerprint())
	}
	// And transactions over the resynced state roll back exactly.
	before := r.sw.Table().Fingerprint()
	tx := r.m.Begin()
	r.m.SetActive(tx)
	del := addPort(1, 10, 0)
	del.Command = openflow.FlowModDeleteStrict
	del.Actions = nil
	r.mustSend(t, del)
	r.m.SetActive(nil)
	r.barrier(t)
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if r.sw.Table().Fingerprint() != before {
		t.Fatal("rollback over resynced shadow left residue")
	}
}

// refComputeUndo is computeUndo as it was before flowtable.Select: the
// three helpers it used, which scanned, cloned and sorted the whole
// shadow for every FlowMod.
func refComputeUndo(sh *flowtable.Table, dpid uint64, fm *openflow.FlowMod) undoOp {
	findStrict := func(norm openflow.Match, prio uint16) *flowtable.Entry {
		for _, e := range sh.Entries() {
			if e.Match == norm && e.Priority == prio {
				return e
			}
		}
		return nil
	}
	selectEntries := func(norm openflow.Match, prio uint16, strict bool) []*flowtable.Entry {
		var out []*flowtable.Entry
		for _, e := range sh.Entries() {
			if strict {
				if e.Match == norm && e.Priority == prio {
					out = append(out, e)
				}
			} else if norm.Subsumes(&e.Match) {
				out = append(out, e)
			}
		}
		return out
	}
	outputsTo := func(e *flowtable.Entry, port uint16) bool {
		for _, a := range e.Actions {
			if o, ok := a.(*openflow.ActionOutput); ok && o.Port == port {
				return true
			}
		}
		return false
	}
	norm := fm.Match.Normalize()
	op := undoOp{dpid: dpid}
	switch fm.Command {
	case openflow.FlowModAdd:
		if prev := findStrict(norm, fm.Priority); prev != nil {
			op.restore = append(op.restore, prev)
		} else {
			op.remove = append(op.remove, strictKey{norm, fm.Priority})
		}
	case openflow.FlowModModify, openflow.FlowModModifyStrict:
		affected := selectEntries(norm, fm.Priority, fm.Command == openflow.FlowModModifyStrict)
		if len(affected) == 0 {
			op.remove = append(op.remove, strictKey{norm, fm.Priority})
		} else {
			op.restore = append(op.restore, affected...)
		}
	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		for _, v := range selectEntries(norm, fm.Priority, fm.Command == openflow.FlowModDeleteStrict) {
			if fm.OutPort != openflow.PortNone && !outputsTo(v, fm.OutPort) {
				continue
			}
			op.restore = append(op.restore, v)
		}
	}
	return op
}

// randomFlowMod draws from a small space of matches, priorities and
// ports so that adds collide, non-strict selections hit several entries
// and out_port filters bite.
func randomFlowMod(rng *rand.Rand) *openflow.FlowMod {
	m := openflow.MatchAll()
	if rng.Intn(4) > 0 {
		m.Wildcards &^= openflow.WildcardInPort
		m.InPort = uint16(1 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		m.Wildcards &^= openflow.WildcardTpDst
		m.TpDst = uint16(80 + rng.Intn(3))
	}
	fm := &openflow.FlowMod{Match: m, Priority: uint16(10 * (1 + rng.Intn(3))), Cookie: rng.Uint64(),
		BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: uint16(1 + rng.Intn(3))}}}
	switch n := rng.Intn(10); {
	case n < 5:
		fm.Command = openflow.FlowModAdd
	case n < 6:
		fm.Command = openflow.FlowModModify
	case n < 7:
		fm.Command = openflow.FlowModModifyStrict
	case n < 8:
		fm.Command = openflow.FlowModDeleteStrict
	default:
		fm.Command = openflow.FlowModDelete
		if rng.Intn(2) == 0 {
			fm.OutPort = uint16(1 + rng.Intn(3))
		}
	}
	return fm
}

func TestComputeUndoMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(nil, nil)
		shd := m.shardOf(1)
		for i := 0; i < 2000; i++ {
			fm := randomFlowMod(rng)
			got, want := m.computeUndo(shd, 1, fm), refComputeUndo(m.shadow(shd, 1), 1, fm)
			if !reflect.DeepEqual(got.remove, want.remove) || len(got.restore) != len(want.restore) {
				t.Fatalf("seed %d op %d %v: undo %+v, reference %+v", seed, i, fm.Command, got, want)
			}
			for j := range got.restore {
				g, w := got.restore[j], want.restore[j]
				if g.Match != w.Match || g.Priority != w.Priority || g.Cookie != w.Cookie || !reflect.DeepEqual(g.Actions, w.Actions) {
					t.Fatalf("seed %d op %d %v: restore[%d] = %+v, reference %+v", seed, i, fm.Command, j, g, w)
				}
			}
			if _, err := m.shadow(shd, 1).Apply(fm); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// One hooked FlowMod's inversion against a 1 000-rule shadow: a strict
// selection is a map probe, not a copy and sort of the table.
func BenchmarkComputeUndo1000(b *testing.B) {
	m := NewManager(nil, nil)
	shd := m.shardOf(1)
	add := func(i int) *openflow.FlowMod {
		match := openflow.MatchAll()
		match.Wildcards &^= openflow.WildcardTpDst | openflow.WildcardInPort
		match.TpDst, match.InPort = uint16(i), uint16(i%7)
		return &openflow.FlowMod{Match: match, Command: openflow.FlowModAdd, Priority: 10,
			BufferID: openflow.BufferIDNone, OutPort: openflow.PortNone}
	}
	for i := 0; i < 1000; i++ {
		if _, err := m.shadow(shd, 1).Apply(add(i)); err != nil {
			b.Fatal(err)
		}
	}
	fm := add(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if op := m.computeUndo(shd, 1, fm); len(op.restore) != 1 {
			b.Fatal("overwrite not found")
		}
	}
}
