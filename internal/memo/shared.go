package memo

import (
	"fmt"
	"sync"

	"memotable/internal/isa"
)

// Shared is a multi-ported MEMO-TABLE: one table serving several instances
// of the same computation unit, so recurring calculations dispatched to
// different units still reuse each other's work (§2.3). The paper further
// proposes replacing a second divider with a table port outright; the
// sharedtable example demonstrates that arrangement.
//
// A one-port (or NewShared-built) table serializes every access under a
// single lock, modelling a time-multiplexed array. For the genuinely
// multi-ported case, NewSharedStriped partitions the table's sets across
// independently locked stripes: accesses to different stripes proceed
// concurrently, the way separate banks of a multi-ported SRAM array
// service separate ports. The partition is exact — stripe selection uses
// the table's own set-index hash, so a striped table performs, entry for
// entry and eviction for eviction, the same protocol as the single-lock
// table, and serial feeds produce identical statistics.
type Shared struct {
	ports int
	op    isa.Op
	cfg   Config
	// router derives tag keys and full-geometry set indices for stripe
	// selection; its entry storage is never used. Nil when 1 stripe.
	router *Table
	// subIdxBits is the sub-table index width, used by the integer-class
	// routing (whose set hash takes low bits; see stripeFor).
	subIdxBits uint
	stripes    []sharedStripe
}

// sharedStripe is one independently locked bank of the shared table.
type sharedStripe struct {
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
	s := &Shared{ports: ports, op: table.Op(), cfg: table.Config()}
	s.stripes = make([]sharedStripe, 1)
	s.stripes[0].table = table
	return s
}

// NewSharedStriped builds a multi-ported table whose sets are partitioned
// across the given number of independently locked stripes. stripes must
// be a power of two no larger than the configuration's set count (any
// value for the infinite table); stripes <= 0 picks the largest power of
// two not exceeding the port count that the geometry admits. It panics on
// invalid geometry, like New.
func NewSharedStriped(op isa.Op, cfg Config, ports, stripes int) *Shared {
	if ports <= 0 {
		panic("memo: port count must be positive")
	}
	router := New(op, cfg) // validates op and cfg
	numSets, idxBits := cfg.sets()
	maxStripes := numSets
	if cfg.Entries == 0 {
		maxStripes = 1 << 8 // infinite table: stripes are hash banks
	}
	if stripes <= 0 {
		stripes = 1
		for stripes*2 <= ports && stripes*2 <= maxStripes {
			stripes *= 2
		}
	}
	if stripes&(stripes-1) != 0 {
		panic(fmt.Sprintf("memo: stripe count %d not a power of two", stripes))
	}
	if stripes > maxStripes {
		panic(fmt.Sprintf("memo: %d stripes exceed the %d-set geometry", stripes, maxStripes))
	}
	s := &Shared{ports: ports, op: op, cfg: cfg, router: router}
	s.stripes = make([]sharedStripe, stripes)
	if stripes == 1 {
		s.router = nil
		s.stripes[0].table = New(op, cfg)
		return s
	}
	log2 := uint(0)
	for v := stripes; v > 1; v >>= 1 {
		log2++
	}
	s.subIdxBits = idxBits - log2
	subCfg := cfg
	if cfg.Entries > 0 {
		subCfg.Entries = cfg.Entries / stripes
	}
	for i := range s.stripes {
		s.stripes[i].table = New(op, subCfg)
	}
	return s
}

// Ports returns the configured port count.
func (s *Shared) Ports() int { return s.ports }

// Stripes returns the number of independently locked banks.
func (s *Shared) Stripes() int { return len(s.stripes) }

// stripeFor routes an operand pair to its bank. The routing must agree
// with the sub-tables' own set selection so that (stripe, sub-set) is a
// bijection with the full table's set index, and it must be symmetric in
// (a, b) so a commutative class's reversed-operand probe stays inside one
// bank; both hold for every tagging scheme:
//
//   - integer tables hash low operand bits (XOR — symmetric), so the
//     sub-table keeps the low index bits and the stripe takes the high;
//   - fp tables hash mantissa MSBs (XOR of top bits — symmetric), so the
//     sub-table keeps the high index bits and the stripe takes the low;
//   - the infinite table and untaggable mantissa-mode specials have no
//     set index; a symmetric mix of the raw operands picks the bank.
func (s *Shared) stripeFor(a, b uint64) *sharedStripe {
	if len(s.stripes) == 1 {
		return &s.stripes[0]
	}
	mask := uint64(len(s.stripes) - 1)
	if s.cfg.Entries == 0 {
		return &s.stripes[symmetricMix(a, b)&mask]
	}
	ka, kb, ok := s.router.key(a, b)
	if !ok {
		return &s.stripes[symmetricMix(a, b)&mask]
	}
	i := uint64(s.router.index(ka, kb))
	if s.op == isa.OpIMul {
		return &s.stripes[i>>s.subIdxBits]
	}
	return &s.stripes[i&mask]
}

// symmetricMix hashes an operand pair invariantly under operand swap.
func symmetricMix(a, b uint64) uint64 {
	h := (a ^ b) * 0x9E3779B97F4A7C15
	return h ^ h>>33
}

// Access performs Table.Access under the owning stripe's lock.
func (s *Shared) Access(a, b uint64, compute func() uint64) (uint64, bool) {
	st := s.stripeFor(a, b)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.table.Access(a, b, compute)
}

// Lookup performs Table.Lookup under the owning stripe's lock.
func (s *Shared) Lookup(a, b uint64) (uint64, bool) {
	st := s.stripeFor(a, b)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.table.Lookup(a, b)
}

// Insert performs Table.Insert under the owning stripe's lock.
func (s *Shared) Insert(a, b, result uint64) {
	st := s.stripeFor(a, b)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.table.Insert(a, b, result)
}

// Stats snapshots the table's statistics, summed across stripes.
func (s *Shared) Stats() Stats {
	var total Stats
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		total.Add(s.stripes[i].table.Stats())
		s.stripes[i].mu.Unlock()
	}
	return total
}

// Len returns the number of valid entries across all stripes.
func (s *Shared) Len() int {
	n := 0
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		n += s.stripes[i].table.Len()
		s.stripes[i].mu.Unlock()
	}
	return n
}

// Reset clears every stripe.
func (s *Shared) Reset() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
		s.stripes[i].table.Reset()
		s.stripes[i].mu.Unlock()
	}
}
