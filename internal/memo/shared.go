package memo

import "sync"

// Shared is a multi-ported MEMO-TABLE: one table serving several instances
// of the same computation unit, so recurring calculations dispatched to
// different units still reuse each other's work (§2.3). The paper further
// proposes replacing a second divider with a table port outright; the
// sharedtable example demonstrates that arrangement.
//
// Every access serializes under one lock, modelling a time-multiplexed
// array: the ports share one set of entries and one replacement state.
type Shared struct {
	ports int
	mu    sync.Mutex
	table *Table
}

// NewShared wraps a table for concurrent use through the given number of
// ports behind one lock. It panics on a nil table or non-positive port
// count.
func NewShared(table *Table, ports int) *Shared {
	if table == nil {
		panic("memo: NewShared requires a table")
	}
	if ports <= 0 {
		panic("memo: port count must be positive")
	}
	return &Shared{ports: ports, table: table}
}

// Ports returns the configured port count.
func (s *Shared) Ports() int { return s.ports }

// Access performs Table.Access under the table's lock.
func (s *Shared) Access(a, b uint64, compute func() uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Access(a, b, compute)
}

// Lookup performs Table.Lookup under the table's lock.
func (s *Shared) Lookup(a, b uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Lookup(a, b)
}

// Insert performs Table.Insert under the table's lock.
func (s *Shared) Insert(a, b, result uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.Insert(a, b, result)
}

// Stats snapshots the table's statistics.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.Stats()
}
