// Package experiments implements the LegoSDN evaluation harness: one
// function per table, figure and quantitative claim in the paper, each
// returning a rendered-as-text Table. The root bench_test.go and
// cmd/legosdn-bench both drive these, so `go test -bench` and the CLI
// print identical rows. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded results.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"legosdn/internal/controller"
	"legosdn/internal/core"
	"legosdn/internal/metrics"
	"legosdn/internal/netsim"
	"legosdn/internal/openflow"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Metrics, when set, is the frozen instrument state of the stack the
	// experiment ran (machine-readable companion to the rendered rows).
	Metrics *metrics.Snapshot
	// Values holds the experiment's headline numbers keyed by metric
	// name, for tests to assert on.
	Values map[string]float64
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// CaptureMetrics freezes a registry's instruments into the table's
// machine-readable metrics block. No-op on a nil registry.
func (t *Table) CaptureMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := reg.Snapshot()
	t.Metrics = &s
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// us formats a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d.Nanoseconds())/1e3)
}

// yesNo renders a boolean as operator-readable text.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// waitCond polls until cond holds or the deadline passes, reporting
// success. The poll quantum is fine-grained (10us) so latency
// measurements built on it are not floored at a sleep tick.
func waitCond(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Microsecond)
	}
	return true
}

// drainQuiesce waits until the controller stops processing events for
// one settle interval.
func drainQuiesce(c *controller.Controller, settle time.Duration) {
	last := c.Processed.Load()
	lastChange := time.Now()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		cur := c.Processed.Load()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if time.Since(lastChange) >= settle {
			return
		}
	}
}

// connect attaches a simulated network to a stack, failing loudly on
// the (test-only) error paths.
func connect(stack *core.Stack, n *netsim.Network) {
	if err := stack.ConnectNetwork(n); err != nil {
		panic(fmt.Sprintf("experiments: connect: %v", err))
	}
}

// sendTCP injects one TCP packet between named hosts.
func sendTCP(n *netsim.Network, src, dst string, sport, dport uint16) {
	hs, hd := n.Host(src), n.Host(dst)
	_ = n.SendFromHost(src, netsim.TCPFrame(hs, hd, sport, dport, nil))
}

// poisonApp is a learning switch that panics on packets to one TCP
// destination port: the recurring deterministic bug of the harness.
type poisonApp struct {
	inner  controller.App
	snap   controller.Snapshotter
	poison uint16
}

// newPoisonLearningSwitch builds the factory used across experiments.
func newPoisonLearningSwitch(poison uint16) func() controller.App {
	return func() controller.App {
		inner := newRegistryApp("learning-switch")
		return &poisonApp{inner: inner, snap: inner.(controller.Snapshotter), poison: poison}
	}
}

func (a *poisonApp) Name() string                          { return a.inner.Name() }
func (a *poisonApp) Subscriptions() []controller.EventKind { return a.inner.Subscriptions() }
func (a *poisonApp) HandleEvent(ctx controller.Context, ev controller.Event) error {
	if pin, ok := ev.Message.(*openflow.PacketIn); ok {
		if f, err := netsim.ParseFrame(pin.Data); err == nil && f.TpDst == a.poison {
			panic(fmt.Sprintf("poisonApp: deterministic bug on port %d", a.poison))
		}
	}
	return a.inner.HandleEvent(ctx, ev)
}
func (a *poisonApp) Snapshot() ([]byte, error)  { return a.snap.Snapshot() }
func (a *poisonApp) Restore(state []byte) error { return a.snap.Restore(state) }
