package replica

// Read-outs of the shipper's and applier's counters that only the
// tests look at.

// Scans reports the passes the shipping loop has made over its streams
// (an idle shipper makes next to none).
func (s *Shipper) Scans() uint64 { return s.scans.Load() }

// AppliedPos reports the highest position applied on a stream.
func (a *Applier) AppliedPos(stream byte) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last[stream]
}

// Dups counts duplicate deliveries skipped; Resets the generation wipes
// performed.
func (a *Applier) Dups() uint64   { return a.dups.Load() }
func (a *Applier) Resets() uint64 { return a.resets.Load() }
