package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"legosdn/internal/netsim"
)

// The generator is closed loop and runs on one goroutine: it keeps k
// events outstanding and injects the next only when a frame has been
// delivered. An open loop cannot pace this path on the sandbox the
// harness was sized on (time.Sleep(100µs) returns after about 1 ms);
// README.md has the numbers.

const (
	ringSize = 1 << 12 // slots; far above the events ever outstanding
	// eventTimeout is how long an event may take before it counts as
	// failed, and the EventTimeout every proxy is given in place of its
	// default of 2 s. Under the durable workload's fsync rate the sandbox's
	// disk stalls one for 2 to 6 s every hundred seconds or so; a proxy
	// that gives up after 2 s declares the app crashed and the event is
	// lost, where the stack was only waiting for the disk.
	eventTimeout = 10 * time.Second
	// maxStalls is how many such timeouts one segment survives.
	maxStalls = 2
)

const (
	slotFree uint32 = iota
	slotInFlight
	slotDelivered
)

// slot tracks one outstanding PacketIn. The generator fills id, dst and
// t0 and then publishes the slot by storing slotInFlight; the receiving
// goroutine reads them only after loading that state.
type slot struct {
	state atomic.Uint32
	id    uint32
	dst   int   // host expected to receive the frame
	t0    int64 // nowNs() when Inject was called
	// riders counts PortStatus/FlowRemoved events injected just before
	// this PacketIn. Dispatch is FIFO and serial, so they have been
	// processed once this PacketIn's frame is out.
	riders int
}

type completion struct {
	id uint32
	t  int64
}

// tracker watches the data plane: every frame a host accepts lands in
// receive, which matches it to the event that asked for it.
type tracker struct {
	ring [ringSize]slot
	done chan completion // buffered to ringSize: a receiver never blocks

	// Frames that answer no outstanding event, arrive twice, or reach
	// the wrong host.
	stray, dup, wrong atomic.Uint64
}

func newTracker() *tracker {
	return &tracker{done: make(chan completion, ringSize)}
}

func (t *tracker) receive(host int, f *netsim.Frame) {
	now := nowNs()
	id := idOf(f.TpSrc, f.TpDst)
	s := &t.ring[id%ringSize]
	switch s.state.Load() {
	case slotInFlight:
	case slotDelivered:
		t.dup.Add(1)
		return
	default:
		t.stray.Add(1)
		return
	}
	if s.id != id {
		t.stray.Add(1)
		return
	}
	if s.dst != host {
		t.wrong.Add(1)
		return
	}
	if !s.state.CompareAndSwap(slotInFlight, slotDelivered) {
		t.dup.Add(1)
		return
	}
	t.done <- completion{id: id, t: now}
}

// segStats accumulates what one or more segments measured.
type segStats struct {
	attempted, failed int
	completed         int     // events whose completion was observed
	latencies         []int64 // ns, one per PacketIn that had the pipeline to itself
	start, end        int64   // nowNs() at the first inject and the last completion
	windows           []int   // completions per throughputWindow since start
}

// throughputWindow is the bucket width of segStats.windows.
const throughputWindow = 250 * time.Millisecond

func (s *segStats) countAt(t int64, n int) {
	w := int((t - s.start) / int64(throughputWindow))
	for len(s.windows) <= w {
		s.windows = append(s.windows, 0)
	}
	s.windows[w] += n
}

// generator drives one env.
type generator struct {
	e      *env
	nextID uint32
	total  int // events injected into e so far
}

// inject sends one scheduled event into the serving stack and returns
// the slot that will observe it, or nil for events that release no
// frame. tos poisons a PacketIn.
func (g *generator) inject(spec evSpec, riders int, tos uint8) (*slot, error) {
	stack := g.e.serving()
	if stack == nil {
		return nil, errors.New("bench: no stack is serving")
	}
	g.nextID++
	if g.nextID > maxEventID {
		return nil, errors.New("bench: event ids exhausted")
	}
	id := g.nextID
	if stack != g.e.cur {
		g.e.cur, g.e.due = stack, stack.Controller.Processed.Load()
	}
	if !spec.kind.packetIn() {
		if err := stack.Controller.Inject(g.e.fab.control(spec, id)); err != nil {
			return nil, err
		}
		g.total++
		g.e.due++
		return nil, nil
	}
	ev := g.e.fab.packetIn(spec, id, tos)
	s := &g.e.trk.ring[id%ringSize]
	s.id, s.dst, s.riders = id, hostIndex(spec.sw, spec.dst), riders
	s.t0 = nowNs()
	s.state.Store(slotInFlight)
	if err := stack.Controller.Inject(ev); err != nil {
		s.state.Store(slotFree)
		return nil, err
	}
	g.total++
	g.e.due++
	return s, nil
}

// source yields the events of one segment: the spec to inject after
// injected events, or false when the segment has injected enough.
type source func(injected int) (evSpec, bool)

// injectNext injects events from next up to and including a PacketIn,
// and reports how many events that was (0 when next is exhausted). A
// PortStatus or FlowRemoved is always followed by a PacketIn, even past
// the end of the segment, because only a frame shows it was processed.
func (g *generator) injectNext(next source, injected int) (int, error) {
	riders := 0
	for {
		spec, ok := next(injected + riders)
		if !ok {
			if riders == 0 {
				return 0, nil
			}
			spec = g.e.sched.nextPacketIn()
		}
		if spec.kind.packetIn() {
			_, err := g.inject(spec, riders, 0)
			return riders + 1, err
		}
		if _, err := g.inject(spec, 0, 0); err != nil {
			return riders, err
		}
		riders++
	}
}

// run keeps k events from next outstanding until next is exhausted,
// then waits for the rest.
func (g *generator) run(k int, next source, st *segStats) error {
	if st.start == 0 {
		st.start = nowNs()
	}
	injected, inflight, exhausted, stalls := 0, 0, false, 0
	// A coarse ticker notices a stall without arming a timer per event.
	tick := time.NewTicker(eventTimeout / 4)
	defer tick.Stop()
	progress := nowNs()
	trk := g.e.trk
	for {
		for inflight < k && !exhausted {
			n, err := g.injectNext(next, injected)
			if err != nil {
				return err
			}
			if n == 0 {
				exhausted = true
				break
			}
			injected += n
			st.attempted += n
			inflight++
		}
		if inflight == 0 {
			return nil
		}
		select {
		case c := <-trk.done:
			s := &trk.ring[c.id%ringSize]
			inflight--
			st.completed += 1 + s.riders
			st.end = c.t
			st.countAt(c.t, 1+s.riders)
			if s.riders == 0 && k == 1 {
				st.latencies = append(st.latencies, c.t-s.t0)
			}
			if rec := g.e.rec; rec != nil && rec.on.Load() {
				rec.add(span{ev: c.id, kind: spEvent, start: s.t0, end: c.t})
			}
			s.state.Store(slotFree)
			progress = c.t
		case <-tick.C:
			if nowNs()-progress < int64(eventTimeout) {
				continue
			}
			// Whatever is still outstanding is lost; each lost event
			// also fails the riders queued ahead of it.
			for i := range trk.ring {
				if s := &trk.ring[i]; s.state.Load() == slotInFlight {
					st.failed += 1 + s.riders
					s.state.Store(slotFree)
				}
			}
			if stalls++; stalls > maxStalls {
				return fmt.Errorf("bench: the stack keeps stalling: no event completed within %v (%d outstanding)", eventTimeout, inflight)
			}
			inflight, progress = 0, nowNs()
		}
	}
}

// runCount runs n scheduled events with k outstanding.
func (g *generator) runCount(k, n int, st *segStats) error {
	return g.run(k, func(injected int) (evSpec, bool) {
		if injected >= n {
			return evSpec{}, false
		}
		return g.e.sched.next(), true
	}, st)
}

// runFor runs scheduled events with k outstanding for d.
func (g *generator) runFor(k int, d time.Duration, st *segStats) error {
	deadline := time.Now().Add(d)
	return g.run(k, func(int) (evSpec, bool) {
		if !time.Now().Before(deadline) {
			return evSpec{}, false
		}
		return g.e.sched.next(), true
	}, st)
}
