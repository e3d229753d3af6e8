// Package memo implements the paper's MEMO-TABLE: a cache-like lookup
// table attached to a multi-cycle computation unit. Operands are presented
// to the table and the unit in parallel; a tag hit supplies the result of a
// previous identical computation in a single cycle and the unit's
// computation is aborted, while a miss costs nothing and the unit's result
// is inserted for future reuse (§2 of Citron, Feitelson & Rudolph,
// ASPLOS 1998).
package memo

import (
	"fmt"

	"memotable/internal/isa"
)

// TrivialPolicy selects how trivial operations (multiply by 0/1, divide by
// 1, zero dividend, sqrt of 0/1) interact with the table. Table 9 of the
// paper compares all three.
type TrivialPolicy int

const (
	// CacheAll stores trivial operations in the table like any other
	// (column "all" in Table 9).
	CacheAll TrivialPolicy = iota
	// NonTrivialOnly keeps trivial operations out of the table entirely;
	// they are excluded from the hit ratio (column "non"). This is the
	// paper's default for all experiments outside Table 9.
	NonTrivialOnly
	// Integrated detects trivial operations ahead of the lookup and
	// returns their result immediately; they count as hits but are never
	// inserted (column "intgr").
	Integrated
)

// String names the policy with the paper's column labels.
func (p TrivialPolicy) String() string {
	switch p {
	case CacheAll:
		return "all"
	case NonTrivialOnly:
		return "non"
	case Integrated:
		return "intgr"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes a MEMO-TABLE's geometry and tagging scheme.
type Config struct {
	// Entries is the total entry count. Zero means "infinite": the
	// idealized, unbounded fully associative table the paper uses to
	// measure reuse potential.
	Entries int
	// Ways is the set associativity. Zero (or Ways >= Entries) means
	// fully associative. The paper's basic configuration is 32 entries in
	// sets of 4 (8 rows).
	Ways int
	// MantissaOnly tags floating-point operands by their 52 mantissa bits
	// alone (§2.1's first variation, evaluated in Table 10). The table
	// then reconstructs the result's exponent from the requesting
	// operands. Ignored for integer operations.
	MantissaOnly bool
	// NoCommutativeLookup disables the reversed-operand compare for
	// commutative operations (§2.2). Off by default — the paper's tables
	// perform both compares; this switch exists for the ablation bench.
	NoCommutativeLookup bool
}

// Paper32x4 is the paper's basic configuration: 32 entries, 4-way
// associative, full values tagged, non-trivial operations only.
func Paper32x4() Config { return Config{Entries: 32, Ways: 4} }

// Infinite is the idealized unbounded fully associative table.
func Infinite() Config { return Config{} }

// Validate checks geometric consistency: Entries must be a power of two
// (the index hash produces log2(sets) bits) and divisible by Ways.
func (c Config) Validate() error {
	if c.Entries == 0 {
		return nil // infinite table: geometry-free
	}
	if c.Entries < 0 {
		return fmt.Errorf("memo: negative entry count %d", c.Entries)
	}
	if c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("memo: entries %d not a power of two", c.Entries)
	}
	if c.Ways < 0 {
		return fmt.Errorf("memo: negative associativity %d", c.Ways)
	}
	if c.Ways == 0 || c.Ways > c.Entries {
		return nil // fully associative
	}
	if c.Entries%c.Ways != 0 {
		return fmt.Errorf("memo: entries %d not divisible by ways %d", c.Entries, c.Ways)
	}
	sets := c.Entries / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("memo: set count %d not a power of two", sets)
	}
	return nil
}

// sets returns the number of sets and the index bit count.
func (c Config) sets() (n int, bits uint) {
	if c.Entries == 0 {
		return 0, 0
	}
	ways := c.Ways
	if ways == 0 || ways > c.Entries {
		ways = c.Entries
	}
	n = c.Entries / ways
	for s := n; s > 1; s >>= 1 {
		bits++
	}
	return n, bits
}

// Stats accumulates a table's event counts. The paper's two success
// indicators — hit ratio and (via the cycle model) speedup — both derive
// from these.
type Stats struct {
	Lookups   uint64 // operand pairs presented to the tag compare
	Hits      uint64 // tag matches
	Misses    uint64 // failed lookups (result inserted afterwards)
	Trivial   uint64 // operations answered by the trivial-op detectors
	Bypassed  uint64 // operations that skipped the table (policy or specials)
	Inserts   uint64 // entries written
	Evictions uint64 // valid entries displaced
}

// HitRatio is Hits/Lookups — the paper's per-table hit ratio, which
// excludes trivial operations under the NonTrivialOnly policy.
func (s Stats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// IntegratedHitRatio counts trivial detections as hits over all
// operations, the "intgr" column of Table 9.
func (s Stats) IntegratedHitRatio() float64 {
	total := s.Lookups + s.Trivial
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Trivial) / float64(total)
}

// Ops is the total operations observed (table lookups + trivial +
// bypassed).
func (s Stats) Ops() uint64 { return s.Lookups + s.Trivial + s.Bypassed }

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lookups += other.Lookups
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Trivial += other.Trivial
	s.Bypassed += other.Bypassed
	s.Inserts += other.Inserts
	s.Evictions += other.Evictions
}

// validateOp panics on an operation class that has no MEMO-TABLE: only
// the multi-cycle classes are memoizable.
func validateOp(op isa.Op) {
	if !op.Memoizable() {
		panic(fmt.Sprintf("memo: op %v is not a multi-cycle memoizable class", op))
	}
}
