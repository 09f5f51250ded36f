// Package flowtable implements OpenFlow 1.0 flow-table semantics as a
// reusable data structure: priority lookup, strict and non-strict
// modify/delete, overlap checking, idle/hard timeouts and per-entry
// counters. The network simulator uses it as each switch's table, and
// NetLog uses it as the controller-side shadow of each switch — both
// sides of the paper's rollback machinery therefore share one tested
// implementation of the semantics.
//
// Lookup is the data-plane hot path and runs against a priority-bucketed
// index (see index.go) under a read lock, with per-entry statistics kept
// in atomics so concurrent lookups never contend or race. The original
// linear scan survives in index_test.go as the reference the property
// tests and benchmarks compare against.
package flowtable

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"legosdn/internal/openflow"
)

// Entry is one installed rule in a switch flow table.
//
// The exported counter and timestamp fields are snapshots: they are
// authoritative on entries the caller built (InsertEntry input) and on
// entries the table hands back out of its own structures (Entries,
// Select, Peek clones, Removed entries). On the live entry
// returned by Lookup they are frozen at insert time — read the moving
// values through Counters and LastMatchedAt, which Lookup maintains in
// atomics so concurrent lookups never race.
type Entry struct {
	Match       openflow.Match // normalized
	Priority    uint16
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	Flags       uint16
	Actions     []openflow.Action

	Installed   time.Time
	LastMatched time.Time
	PacketCount uint64
	ByteCount   uint64

	// Index bookkeeping, populated by prepare when the entry enters a
	// table: tieKey is Match.String() computed once so priority ties
	// break deterministically without per-lookup allocations; packed and
	// exact feed the exact-match hash index; stats holds the live
	// counters that Lookup bumps atomically under the read lock.
	tieKey string
	exact  bool
	packed openflow.PackedFields
	stats  *entryStats
}

// entryStats are the counters Lookup mutates. They live behind a
// pointer so clones (plain struct copies) can drop them, and they are
// atomics so lookups under the shared read lock never race each other.
type entryStats struct {
	packets     atomic.Uint64
	bytes       atomic.Uint64
	lastMatched atomic.Int64 // UnixNano; zeroTimeNano encodes the zero time.Time
}

// zeroTimeNano stands in for the zero time.Time, whose UnixNano is
// undefined (year 1 is outside the representable range).
const zeroTimeNano = math.MinInt64

func nanoOf(t time.Time) int64 {
	if t.IsZero() {
		return zeroTimeNano
	}
	return t.UnixNano()
}

func timeOf(n int64) time.Time {
	if n == zeroTimeNano {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// prepare computes the index bookkeeping and moves the entry's snapshot
// counters into live atomics. Called once, under the table write lock,
// when the entry enters the table.
func (e *Entry) prepare() {
	e.tieKey = e.Match.String()
	e.packed, e.exact = e.Match.ExactFields()
	s := &entryStats{}
	s.packets.Store(e.PacketCount)
	s.bytes.Store(e.ByteCount)
	s.lastMatched.Store(nanoOf(e.LastMatched))
	e.stats = s
}

// materialize freezes the live counters back into the exported snapshot
// fields. Called on entries leaving the table (removal, expiry) so
// FlowRemoved emission and journaling read final values. The stats
// pointer is kept: a caller still holding this entry from an earlier
// Lookup may call Counters concurrently, and once the entry is out of
// the index the atomics can no longer move.
func (e *Entry) materialize() {
	if e.stats == nil {
		return
	}
	e.PacketCount = e.stats.packets.Load()
	e.ByteCount = e.stats.bytes.Load()
	e.LastMatched = timeOf(e.stats.lastMatched.Load())
}

// Counters returns the entry's packet and byte counters: the live
// values on an entry returned by Lookup, the snapshot on a clone.
func (e *Entry) Counters() (packets, bytes uint64) {
	if e.stats != nil {
		return e.stats.packets.Load(), e.stats.bytes.Load()
	}
	return e.PacketCount, e.ByteCount
}

// LastMatchedAt returns the time of the entry's most recent Lookup hit
// (its install time if it has never matched).
func (e *Entry) LastMatchedAt() time.Time {
	if e.stats != nil {
		return timeOf(e.stats.lastMatched.Load())
	}
	return e.LastMatched
}

// key identifies an entry for strict matching: identical normalized
// match plus identical priority.
type flowKey struct {
	match    openflow.Match
	priority uint16
}

func (e *Entry) key() flowKey { return flowKey{e.Match, e.Priority} }

// clone deep-copies the entry so snapshots never alias live state. Live
// counters are materialized into the clone's exported fields.
func (e *Entry) clone() *Entry {
	c := *e
	c.Actions = openflow.CopyActions(e.Actions)
	if e.stats != nil {
		c.PacketCount = e.stats.packets.Load()
		c.ByteCount = e.stats.bytes.Load()
		c.LastMatched = timeOf(e.stats.lastMatched.Load())
		c.stats = nil
	}
	return &c
}

// Removed pairs an evicted entry with the OpenFlow removal reason, so
// the switch can emit FlowRemoved messages and NetLog can journal the
// destroyed state.
type Removed struct {
	Entry  *Entry
	Reason openflow.FlowRemovedReason
}

// Table implements OpenFlow 1.0 single-table semantics: priority
// lookup, strict and non-strict modify/delete, overlap checking, idle
// and hard timeouts, and per-entry counters. It is safe for concurrent
// use; lookups share a read lock and scale with readers.
type Table struct {
	mu      sync.RWMutex
	entries map[flowKey]*Entry
	index   tableIndex
	clock   Clock
	maxSize int // 0 = unlimited
	onDepth func(depth int)
}

// New returns an empty table reading time from clock
// (RealClock if nil).
func New(clock Clock) *Table {
	if clock == nil {
		clock = RealClock{}
	}
	return &Table{entries: make(map[flowKey]*Entry), index: newTableIndex(), clock: clock}
}

// SetMaxSize bounds the number of entries; Apply of an ADD beyond the
// bound fails with an all-tables-full error code.
func (t *Table) SetMaxSize(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxSize = n
}

// SetDepthObserver installs a callback invoked with the number of
// entries each Lookup examined. The network simulator wires this to a
// lookup-depth histogram; fn must be fast and must not call back into
// the table. A nil fn removes the observer.
func (t *Table) SetDepthObserver(fn func(depth int)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.onDepth = fn
}

// Len reports the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// ErrTableFull is returned by Apply when an ADD exceeds the size bound.
var ErrTableFull = fmt.Errorf("flowtable: flow table full")

// ErrOverlap is returned when CHECK_OVERLAP finds a conflicting entry.
var ErrOverlap = fmt.Errorf("flowtable: overlapping flow entry")

// install prepares the entry and places it in both the map and the
// index, displacing any previous entry under the same strict key.
// Caller holds the write lock.
func (t *Table) install(e *Entry) {
	k := e.key()
	if old, ok := t.entries[k]; ok {
		t.index.remove(old)
	}
	e.prepare()
	t.entries[k] = e
	t.index.insert(e)
}

// Apply executes a FlowMod against the table, returning entries removed
// as a side effect (for DELETE commands those carry reason DELETE; an
// ADD that replaces an identical entry returns nothing, matching
// OpenFlow semantics where replacement resets counters silently).
func (t *Table) Apply(fm *openflow.FlowMod) ([]Removed, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	norm := fm.Match.Normalize()
	switch fm.Command {
	case openflow.FlowModAdd:
		k := flowKey{norm, fm.Priority}
		if fm.Flags&openflow.FlowModFlagCheckOverlap != 0 {
			for _, e := range t.entries {
				if e.Priority == fm.Priority && e.key() != k && matchesOverlap(&e.Match, &norm) {
					return nil, ErrOverlap
				}
			}
		}
		if _, exists := t.entries[k]; !exists && t.maxSize > 0 && len(t.entries) >= t.maxSize {
			return nil, ErrTableFull
		}
		t.install(&Entry{
			Match:       norm,
			Priority:    fm.Priority,
			Cookie:      fm.Cookie,
			IdleTimeout: fm.IdleTimeout,
			HardTimeout: fm.HardTimeout,
			Flags:       fm.Flags,
			Actions:     openflow.CopyActions(fm.Actions),
			Installed:   now,
			LastMatched: now,
		})
		return nil, nil

	case openflow.FlowModModify, openflow.FlowModModifyStrict:
		strict := fm.Command == openflow.FlowModModifyStrict
		modified := false
		for _, e := range t.entries {
			if t.selects(e, &norm, fm.Priority, strict, openflow.PortNone) {
				// Match and priority are untouched, so the index needs
				// no maintenance here.
				e.Actions = openflow.CopyActions(fm.Actions)
				e.Cookie = fm.Cookie
				modified = true
			}
		}
		if !modified {
			// OpenFlow 1.0: a modify that matches nothing behaves as an add.
			if t.maxSize > 0 && len(t.entries) >= t.maxSize {
				return nil, ErrTableFull
			}
			t.install(&Entry{
				Match:       norm,
				Priority:    fm.Priority,
				Cookie:      fm.Cookie,
				IdleTimeout: fm.IdleTimeout,
				HardTimeout: fm.HardTimeout,
				Flags:       fm.Flags,
				Actions:     openflow.CopyActions(fm.Actions),
				Installed:   now,
				LastMatched: now,
			})
		}
		return nil, nil

	case openflow.FlowModDelete, openflow.FlowModDeleteStrict:
		strict := fm.Command == openflow.FlowModDeleteStrict
		var removed []Removed
		for k, e := range t.entries {
			if t.selects(e, &norm, fm.Priority, strict, fm.OutPort) {
				delete(t.entries, k)
				t.index.remove(e)
				e.materialize()
				removed = append(removed, Removed{Entry: e, Reason: openflow.FlowRemovedDelete})
			}
		}
		return removed, nil

	default:
		return nil, fmt.Errorf("flowtable: bad flow_mod command %v", fm.Command)
	}
}

// selects implements the OpenFlow rule-selection predicate shared by
// modify and delete: strict requires identical match and priority;
// non-strict requires the given match to subsume the entry. outPort,
// when not PortNone, additionally requires an output action to that
// port (delete only).
func (t *Table) selects(e *Entry, m *openflow.Match, priority uint16, strict bool, outPort uint16) bool {
	if strict {
		if e.Match != *m || e.Priority != priority {
			return false
		}
	} else if !m.Subsumes(&e.Match) {
		return false
	}
	if outPort != openflow.PortNone {
		found := false
		for _, a := range e.Actions {
			if o, ok := a.(*openflow.ActionOutput); ok && o.Port == outPort {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// matchesOverlap approximates the OpenFlow overlap test: two matches
// overlap when one subsumes the other (a sound subset of true overlap,
// sufficient for CHECK_OVERLAP in the simulator).
func matchesOverlap(a, b *openflow.Match) bool {
	return a.Subsumes(b) || b.Subsumes(a)
}

// Lookup returns the highest-priority entry matching the packet fields
// and, when found, bumps its counters by size bytes. Ties on priority
// are broken deterministically by the precomputed match key so
// simulation runs are reproducible. The hit path takes the read lock,
// probes the index, and updates atomics: zero allocations, and
// concurrent lookups proceed in parallel.
func (t *Table) Lookup(p openflow.PacketFields, size int) *Entry {
	key := p.Pack()
	t.mu.RLock()
	best, depth := t.index.lookup(p, key)
	if best != nil {
		best.stats.packets.Add(1)
		best.stats.bytes.Add(uint64(size))
		best.stats.lastMatched.Store(nanoOf(t.clock.Now()))
	}
	onDepth := t.onDepth
	t.mu.RUnlock()
	if onDepth != nil {
		onDepth(depth)
	}
	return best
}

// Peek returns a deep copy of the highest-priority entry matching the
// packet fields without touching counters or timestamps. Invariant
// checkers use it to trace forwarding behavior without perturbing the
// statistics the control plane observes.
func (t *Table) Peek(p openflow.PacketFields) *Entry {
	key := p.Pack()
	t.mu.RLock()
	defer t.mu.RUnlock()
	best, _ := t.index.lookup(p, key)
	if best == nil {
		return nil
	}
	return best.clone()
}

// Expire removes entries whose idle or hard timeout has elapsed,
// returning them with the appropriate removal reason.
func (t *Table) Expire() []Removed {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock.Now()
	var removed []Removed
	for k, e := range t.entries {
		var reason openflow.FlowRemovedReason
		switch {
		case e.HardTimeout > 0 && now.Sub(e.Installed) >= time.Duration(e.HardTimeout)*time.Second:
			reason = openflow.FlowRemovedHardTimeout
		case e.IdleTimeout > 0 && now.Sub(e.LastMatchedAt()) >= time.Duration(e.IdleTimeout)*time.Second:
			reason = openflow.FlowRemovedIdleTimeout
		default:
			continue
		}
		delete(t.entries, k)
		t.index.remove(e)
		e.materialize()
		removed = append(removed, Removed{Entry: e, Reason: reason})
	}
	return removed
}

// Entries returns deep copies of all entries, ordered by descending
// priority then match string, suitable for stats replies and snapshots.
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	out := make([]*Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.clone())
	}
	t.mu.RUnlock()
	return sortEntries(out)
}

func sortEntries(out []*Entry) []*Entry {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].tieKey < out[j].tieKey
	})
	return out
}

// InsertEntry installs a fully specified entry, preserving its counters
// and timestamps. NetLog's rollback uses this to restore deleted
// entries together with their remaining timeout budget.
func (t *Table) InsertEntry(e *Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := e.clone()
	c.Match = c.Match.Normalize()
	t.install(c)
}

// Select returns deep copies of the entries the OpenFlow selection
// predicate picks (see selects; a stats-request filter is the non-strict
// form), ordered like Entries. Only the hits are cloned and sorted, and
// a strict selection is one map probe.
func (t *Table) Select(match *openflow.Match, priority uint16, strict bool, outPort uint16) []*Entry {
	norm := match.Normalize()
	var out []*Entry
	t.mu.RLock()
	if strict {
		if e := t.entries[flowKey{norm, priority}]; e != nil && t.selects(e, &norm, priority, true, outPort) {
			out = append(out, e.clone())
		}
	} else {
		for _, e := range t.entries {
			if t.selects(e, &norm, priority, false, outPort) {
				out = append(out, e.clone())
			}
		}
	}
	t.mu.RUnlock()
	return sortEntries(out)
}

// Fingerprint summarizes the table's rule state (matches, priorities,
// actions — not counters) as a canonical string. Two tables with equal
// fingerprints hold semantically identical forwarding state; the NetLog
// rollback tests compare these.
func (t *Table) Fingerprint() string {
	entries := t.Entries()
	var sb strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&sb, "p%d[%s]c%d i%d h%d:", e.Priority, e.Match, e.Cookie, e.IdleTimeout, e.HardTimeout)
		for _, a := range e.Actions {
			fmt.Fprintf(&sb, "%v;", a)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
