package main

import (
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"legosdn/internal/core"
	"legosdn/internal/openflow"
)

const (
	// rounds splits the steady phase: each round is a latency segment at
	// one outstanding event, a throughput segment at outstandingMax and a
	// slice of the reference loop. Identical 5 s runs differed by up to
	// 25 % on the sizing sandbox, so a run is long and read per round.
	rounds         = 5
	outstandingMax = 32
	refSlice       = 200 * time.Millisecond
	// setups is how often set-up is repeated; setup_s is the median.
	setups = 3
	// tracedFrom is the first round of a traced run whose latency segment
	// records spans; the rounds before it give the untraced reference.
	tracedFrom = 3
	// latencyShare is the part of a round's timed work spent at one
	// outstanding event. A quartile settles on fewer samples than the
	// median of the throughput windows needs windows.
	latencyShare = 0.4

	maxFailedShare = 0.001
	maxDriftPct    = 10.0
	maxRefSpread   = 10.0
	// maxHeapGrowth is how much the reachable heap may grow between the
	// first and the last round, on top of half its size.
	maxHeapGrowth = 8 << 20
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check of the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// report is everything one run measured.
type report struct {
	w         workload
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"events_attempted"`
	Failed    int               `json:"events_failed"`
	Checks    []check           `json:"checks"`
	Flags     []string          `json:"flags,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer,omitempty"`
	// Info carries the ungated numbers of this run (see README.md).
	Info map[string]metric `json:"info"`
	// Series are the raw samples behind the medians, for whoever wants
	// to look at a run's shape: one value per throughput window, per
	// round, per fault.
	Series map[string][]float64 `json:"series"`
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// runOptions selects and sizes one run.
type runOptions struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// faults overrides the workload's fault count when positive (tests
	// and traced runs use fewer).
	faults int
	// steadyEvents, when positive, replaces the timed steady phase by one
	// round of that many events per segment (tests).
	steadyEvents int
}

// roundResult is what one round of the steady phase measured.
type roundResult struct {
	lat, tput segStats
	tputRate  float64 // median rate of the throughput segment's windows, events/s
	cpuUs     float64 // process CPU µs spent during the throughput segment
	ref       float64 // reference-loop iterations/s
	heapLive  uint64  // bytes reachable after the round, the hosts' delivery logs cleared
}

// runWorkload executes every phase of one run.
func runWorkload(opt runOptions) (*report, error) {
	w := opt.w
	rep := &report{w: w, Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.trace,
		EndToEnd: map[string]metric{}, Info: map[string]metric{}, Series: map[string][]float64{}}
	sched := newSchedule(opt.seed, w.mixed)
	var rec *recorder
	if opt.trace {
		rec = &recorder{}
	}

	// Phase 1: set-up, repeated, each deployment taking its share of the
	// faults once it is up (on `isolated` the share comes before it, see
	// below); the last deployment goes on to be measured.
	// The faults come here, not between the rounds, because the outage
	// depends on how old the deployment is (README.md, "The faults"): after
	// a set-up it is the same fixed number of events old in every run.
	nSetups := setups
	if opt.trace || opt.steadyEvents > 0 {
		nSetups = 1
	}
	warm := w.warmup
	if opt.steadyEvents > 0 {
		warm = opt.steadyEvents
	}
	faults := w.faults
	if opt.faults > 0 {
		faults = opt.faults
	}
	fr := &faultResult{underLoad: opt.trace}
	var e *env
	var g *generator
	var setupTimes []float64
	for i := 0; i < nSetups; i++ {
		if e != nil {
			e.close()
		}
		n := faults / nSetups
		if i < faults%nSetups {
			n++
		}
		if w.mode == core.ModeIsolated {
			// `isolated` has no recovery to exercise in its deployment. What
			// stands in for its faults (faultResult.respawns) runs on a proxy
			// of its own, so it runs between the deployments, with nothing
			// else alive in the process, and after a collection, so that the
			// last deployment's garbage is not collected under it. Timed next
			// to a live deployment, right after its warm-up, the lower
			// quartile of 200 respawns in a row ranged from 74 to 113 µs
			// within one run and the run's figure spread by 21 to 39 % over
			// ten runs; here it spreads by 5 %.
			runtime.GC()
			if err := fr.respawns(n); err != nil {
				return nil, fmt.Errorf("faults before set-up %d: %w", i, err)
			}
		}
		start := time.Now()
		var err error
		if e, err = newEnv(w, sched, rec); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		g = &generator{e: e}
		if err = g.teach(); err == nil {
			err = g.runCount(1, warm, &segStats{})
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if w.mode != core.ModeIsolated {
			if err := fr.batch(g, n); err != nil {
				e.close()
				return nil, fmt.Errorf("faults of set-up %d: %w", i, err)
			}
		}
	}
	defer e.close()
	// The measured deployment also gets a taste of the deeper pipeline
	// before the first round: on `isolated` a round's latency segment is a
	// tenth faster before the first throughput segment than after any.
	if err := g.runCount(outstandingMax, warm/4, &segStats{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rep.EndToEnd["setup_s"] = metric{median(setupTimes), "s"}
	rep.Series["setup_s"] = setupTimes

	// Phase 2: steady state.
	var results []roundResult
	var heapPeak uint64
	var lagMax uint64
	nRounds := rounds
	if opt.steadyEvents > 0 {
		nRounds = 1
	}
	timed := opt.seconds/float64(rounds) - refSlice.Seconds()
	latSeg := time.Duration(timed * latencyShare * float64(time.Second))
	tputSeg := time.Duration(timed * (1 - latencyShare) * float64(time.Second))
	for r := 0; r < nRounds; r++ {
		var rr roundResult
		rec.enable(opt.trace && (r >= tracedFrom || nRounds == 1))
		var err error
		if opt.steadyEvents > 0 {
			err = g.runCount(1, opt.steadyEvents, &rr.lat)
		} else {
			err = g.runFor(1, latSeg, &rr.lat)
		}
		rec.enable(false)
		if err == nil {
			cpu0 := cpuTime()
			if opt.steadyEvents > 0 {
				err = g.runCount(outstandingMax, opt.steadyEvents, &rr.tput)
			} else {
				err = g.runFor(outstandingMax, tputSeg, &rr.tput)
			}
			rr.cpuUs = (cpuTime() - cpu0).Seconds() * 1e6
		}
		if err != nil {
			return nil, fmt.Errorf("steady round %d: %w", r, err)
		}
		rr.tputRate = median(rr.tput.windowRates())
		rr.ref = referenceLoop(refSlice)
		if e.cluster != nil {
			if lag := e.cluster.ReplicationLag(); lag > lagMax {
				lagMax = lag
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > heapPeak {
			heapPeak = ms.HeapAlloc
		}
		e.fab.clearReceived()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		rr.heapLive = ms.HeapAlloc
		results = append(results, rr)
	}
	steadyMetrics(rep, results, opt.trace)
	rep.Info["bench.heap_peak_mb"] = metric{float64(heapPeak) / (1 << 20), "MB"}
	rep.Info["replica.lag_records_max"] = metric{float64(lagMax), "count"}
	verifySteady(rep, e)
	counterMetrics(rep, e, g.total)

	fr.verify(g, rep)
	fr.fill(rep)

	// Phase 3: the layers, from the traced rounds and from direct calls.
	if opt.trace {
		spans := rec.take()
		rep.Layers = map[string]metric{}
		traceMetrics(rep, spans, rec, results)
		if err := microMetrics(rep); err != nil {
			return nil, fmt.Errorf("direct layer calls: %w", err)
		}
		if w.replicated {
			if err := quorumWait(rep, opt.seed); err != nil {
				return nil, fmt.Errorf("quorum-wait reference: %w", err)
			}
		}
		path := filepath.Join("out", "trace-"+w.name+".json")
		if err := writeChromeTrace(path, spans, w.apps); err != nil {
			return nil, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return rep, nil
}

// enable switches span recording; a nil recorder stays off.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// teach makes two passes over the hosts at one outstanding event: on the
// first every switch floods and learns its senders, on the second it
// gets a rule per destination.
func (g *generator) teach() error {
	talkers := g.e.sched.talkers
	var teach []evSpec
	for pass := 0; pass < 2; pass++ {
		for sw := 0; sw < numSwitches; sw++ {
			for h := 0; h < talkers; h++ {
				teach = append(teach, evSpec{kind: evLearned, sw: sw, src: h, dst: (h + 1) % talkers})
			}
		}
	}
	return g.run(1, func(injected int) (evSpec, bool) {
		if injected >= len(teach) {
			return evSpec{}, false
		}
		return teach[injected], true
	}, &segStats{})
}

// windowRates are the completion rates, in events/s, of the segment's
// full windows; the window the deadline cuts short is left out.
func (s *segStats) windowRates() []float64 {
	full := s.windows
	if len(full) > 1 {
		full = full[:len(full)-1]
	}
	rates := make([]float64, len(full))
	for i, n := range full {
		rates[i] = float64(n) / throughputWindow.Seconds()
	}
	return rates
}

// steadyMetrics turns the rounds into the run's end-to-end metrics and
// the harness's own ungated numbers.
func steadyMetrics(rep *report, results []roundResult, traced bool) {
	var lats []int64
	var windowRates, roundRates, refs []float64
	var events, cpuUs float64
	var tputSpan float64
	for i, rr := range results {
		rep.Attempted += rr.lat.attempted + rr.tput.attempted
		rep.Failed += rr.lat.failed + rr.tput.failed
		if !traced || i < tracedFrom {
			lats = append(lats, rr.lat.latencies...)
		}
		rep.Series["round_latency_p25_us"] = append(rep.Series["round_latency_p25_us"], pct(rr.lat.latencies, 25)/1e3)
		rep.Series["round_latency_p50_us"] = append(rep.Series["round_latency_p50_us"], pct(rr.lat.latencies, 50)/1e3)
		rep.Series["round_heap_live_mb"] = append(rep.Series["round_heap_live_mb"], float64(rr.heapLive)/(1<<20))
		windowRates = append(windowRates, rr.tput.windowRates()...)
		roundRates = append(roundRates, rr.tputRate)
		refs = append(refs, rr.ref)
		events += float64(rr.tput.completed)
		cpuUs += rr.cpuUs
		tputSpan += float64(rr.tput.end-rr.tput.start) / 1e9
	}
	rep.Series["window_eps"] = windowRates
	rep.Series["round_eps"] = roundRates
	rep.Series["round_ref_speed"] = refs
	rep.EndToEnd["throughput_eps"] = metric{pctF(windowRates, 90), "1/s"}
	rep.Info["bench.throughput_p50_eps"] = metric{median(windowRates), "1/s"}
	rep.EndToEnd["latency_p25_us"] = metric{pct(lats, 25) / 1e3, "us"}
	rep.Info["bench.latency_samples"] = metric{float64(len(lats)), "count"}
	rep.Info["bench.latency_p50_us"] = metric{pct(lats, 50) / 1e3, "us"}
	rep.Info["bench.latency_p99_us"] = metric{pct(lats, 99) / 1e3, "us"}
	if tputSpan > 0 {
		rep.Info["bench.throughput_mean_eps"] = metric{events / tputSpan, "1/s"}
	}
	if events > 0 {
		rep.Info["bench.cpu_us_per_event"] = metric{cpuUs / events, "us"}
	}
	rep.Info["bench.ref_speed"] = metric{median(refs), "1/s"}
	refSpread := spreadPct(refs)
	rep.Info["bench.ref_spread_pct"] = metric{refSpread, "%"}
	rep.Info["bench.round_spread_pct"] = metric{spreadPct(roundRates), "%"}
	if refSpread > maxRefSpread {
		rep.Flags = append(rep.Flags, fmt.Sprintf(
			"machine regime changed during the run: reference-loop slices differ by %.1f %%", refSpread))
	}
	// Stationarity. A workload whose state grows slows down window by
	// window: a positive drift is a slow-down. On the sizing sandbox the
	// machine and its disk change pace by more than the limit within
	// most runs, so drift alone only flags a run; what fails it is the
	// state itself growing (here and in verifySteady).
	drift := driftPct(windowRates)
	rep.Info["bench.drift_pct"] = metric{drift, "%"}
	if drift > maxDriftPct {
		rep.Flags = append(rep.Flags, fmt.Sprintf(
			"throughput fell by %.1f %% over the run (limit %.0f %%, reference-loop spread %.1f %%)",
			drift, maxDriftPct, refSpread))
	}
	first, last := results[0].heapLive, results[len(results)-1].heapLive
	rep.Info["bench.heap_growth_mb"] = metric{(float64(last) - float64(first)) / (1 << 20), "MB"}
	rep.check("live heap bounded", last <= first+first/2+maxHeapGrowth,
		"%.1f MB reachable after the first round, %.1f MB after the last", float64(first)/(1<<20), float64(last)/(1<<20))
}

// driftPct fits a line through ys by the median of pairwise slopes
// (Theil-Sen, so a few disturbed windows do not tilt it) and returns
// how far the line falls from the first sample to the last, in percent
// of its start.
func driftPct(ys []float64) float64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	slopes := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			slopes = append(slopes, (ys[j]-ys[i])/float64(j-i))
		}
	}
	slope := median(slopes)
	start := median(ys) - slope*float64(n-1)/2
	if start <= 0 {
		return 0
	}
	return -slope * float64(n-1) / start * 100
}

// spreadPct is (max-min)/median of xs in percent.
func spreadPct(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(xs); m > 0 {
		return (hi - lo) / m * 100
	}
	return 0
}

// cpuTime is the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// referenceLoop is the machine-regime sentinel: a fixed piece of work
// that touches what the stack leans on (goroutine hand-offs and a
// memory-bound checksum) and none of the stack's code. Its speed moves
// with the machine, not with the commit under test.
func referenceLoop(d time.Duration) float64 {
	buf := make([]byte, 64<<10)
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
	}()
	defer close(ping)
	// The median over short sub-slices ignores a neighbour's burst and
	// keeps the level the machine runs at.
	const subSlices = 10
	speeds := make([]float64, 0, subSlices)
	var sum uint32
	for i := 0; i < subSlices; i++ {
		start := time.Now()
		n := 0
		for time.Since(start) < d/subSlices {
			ping <- struct{}{}
			<-pong
			sum ^= crc32.ChecksumIEEE(buf)
			buf[n%len(buf)] = byte(sum)
			n++
		}
		speeds = append(speeds, float64(n)/time.Since(start).Seconds())
	}
	return median(speeds)
}

// counterMetrics derives per-event ratios from the stack's own public
// counters, over everything the deployment has processed so far.
func counterMetrics(rep *report, e *env, events int) {
	stack := e.serving()
	if stack == nil || events == 0 {
		return
	}
	if nl := stack.NetLog; nl != nil && nl.BegunTxns.Load() > 0 {
		var flowMods uint64
		for _, sw := range e.fab.net.Switches() {
			flowMods += sw.FlowModsRx.Load()
		}
		begun := float64(nl.BegunTxns.Load())
		rep.Info["netlog.ops_per_txn"] = metric{float64(flowMods) / begun, "count"}
		// No transaction of these workloads holds more than one FlowMod.
		rep.Info["netlog.empty_txn_share"] = metric{(1 - float64(flowMods)/begun) * 100, "%"}
	}
	state := e.state
	if e.cluster != nil {
		state = e.cluster.State()
	}
	if state != nil {
		state.Checkpoints.Flush()
		jw, cw := state.Journal.WAL(), state.Checkpoints.WAL()
		rep.Info["durable.fsyncs_per_event"] = metric{float64(jw.Commits()+cw.Commits()) / float64(events), "count"}
		rep.Info["durable.wal_bytes_per_event"] = metric{float64(jw.AppendedBytes()+cw.AppendedBytes()) / float64(events), "B"}
	}
}

// verifySteady checks the outputs of the steady phase: every frame
// reached exactly its destination exactly once, every switch holds the
// learning switch's rule for every destination that ever sent, and
// NetLog's transactions are all closed.
func verifySteady(rep *report, e *env) {
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	rep.check("events delivered", rep.Attempted > 0 && share <= maxFailedShare,
		"%d of %d events failed", rep.Failed, rep.Attempted)
	stray, dup, wrong := e.trk.stray.Load(), e.trk.dup.Load(), e.trk.wrong.Load()
	rep.check("exactly once, right host", stray+dup+wrong == 0,
		"%d frames answered no outstanding event, %d arrived twice, %d reached the wrong host", stray, dup, wrong)

	missing := 0
	for sw := 0; sw < numSwitches; sw++ {
		rules := map[openflow.EthAddr]uint16{}
		for _, ent := range e.fab.net.Switch(dpidOf(sw)).Table().Entries() {
			if ent.Priority != 10 || len(ent.Actions) != 1 {
				continue
			}
			if out, ok := ent.Actions[0].(*openflow.ActionOutput); ok {
				rules[ent.Match.DlDst] = out.Port
			}
		}
		for h := 0; h < e.sched.talkers; h++ {
			if rules[e.fab.hosts[hostIndex(sw, h)].MAC] != hostPort(h) {
				missing++
			}
		}
	}
	rep.check("forwarding rules installed", missing == 0,
		"%d (switch, destination) pairs lack the learning switch's rule", missing)
	largest := 0
	for _, sw := range e.fab.net.Switches() {
		if n := sw.Table().Len(); n > largest {
			largest = n
		}
	}
	rep.check("flow tables bounded", largest <= hostsPerSwitch,
		"the fullest switch holds %d rules for %d hosts", largest, hostsPerSwitch)

	if stack := e.serving(); stack != nil && stack.NetLog != nil {
		nl := stack.NetLog
		closed := e.drained() && nl.BegunTxns.Load() == nl.CommittedTxns.Load()+nl.Rollbacks.Load()
		rep.check("netlog transactions closed", closed, "begun %d, committed %d, rolled back %d",
			nl.BegunTxns.Load(), nl.CommittedTxns.Load(), nl.Rollbacks.Load())
	}
}
