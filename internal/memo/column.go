package memo

import (
	"math"

	"memotable/internal/arith"
	"memotable/internal/isa"
)

// Column is one operation class's operand pairs from a block of events,
// in stream order: the batch form of Apply. A replay splits each block
// into one column per class, and every unit of that class, whatever its
// geometry or policy, then runs over the same column. The trivial-operand
// detectors run once per column, not once per unit, since their verdict
// depends only on the operands.
type Column struct {
	op         isa.Op
	a, b       []uint64 // every pair, in order (b is 0 for unary classes)
	na, nb     []uint64 // the non-trivial pairs, in order
	classified bool
}

// Reset empties the column and sets its class, keeping its storage.
func (c *Column) Reset(op isa.Op) {
	c.op = op
	c.a, c.b = c.a[:0], c.b[:0]
	c.na, c.nb = c.na[:0], c.nb[:0]
	c.classified = false
}

// Push appends one operand pair, as Apply would receive it.
func (c *Column) Push(a, b uint64) {
	c.a = append(c.a, a)
	c.b = append(c.b, b)
	c.classified = false
}

// Len returns the number of pairs in the column.
func (c *Column) Len() int { return len(c.a) }

// classify runs the class's trivial-operand detectors over the column
// once, keeping the non-trivial pairs in order.
func (c *Column) classify() {
	if c.classified {
		return
	}
	c.classified = true
	c.na, c.nb = c.na[:0], c.nb[:0]
	for i, a := range c.a {
		b := c.b[i]
		var tr arith.Triviality
		switch c.op {
		case isa.OpIMul:
			tr, _ = arith.ClassifyIMul(int64(a), int64(b))
		case isa.OpFMul:
			tr, _ = arith.ClassifyFMul(math.Float64frombits(a), math.Float64frombits(b))
		case isa.OpFDiv:
			tr, _ = arith.ClassifyFDiv(math.Float64frombits(a), math.Float64frombits(b))
		case isa.OpFSqrt:
			tr, _ = arith.ClassifyFSqrt(math.Float64frombits(a))
		}
		if !tr.Trivial() {
			c.na = append(c.na, a)
			c.nb = append(c.nb, b)
		}
	}
}

// ApplyColumn presents every pair of the column to the unit, in order.
// The unit's counters and its table end exactly as Apply on each pair
// would leave them: a miss still computes its result and stores it. Only
// the results themselves are not returned.
func (u *Unit) ApplyColumn(c *Column) {
	u.mustOp(c.op)
	c.classify()
	trivial := uint64(len(c.a) - len(c.na))
	u.totalOps += uint64(len(c.a))
	u.trivialOps += trivial
	if u.policy == CacheAll {
		u.table.accessColumn(c.a, c.b, u.compute)
		return
	}
	// Integrated and NonTrivialOnly both answer trivial operations ahead
	// of the table.
	u.table.stats.Trivial += trivial
	u.table.accessColumn(c.na, c.nb, u.compute)
}

// accessColumn performs Access on each pair of as and bs in order,
// computing a missed result with compute. The table kind and tagging
// scheme are tested once per column: the full-value loops need no tag
// derivation, no result encoding and no reconstruction.
func (t *Table) accessColumn(as, bs []uint64, compute func(a, b uint64) uint64) {
	bs = bs[:len(as)]
	switch {
	case t.mant:
		for i, a := range as {
			b := bs[i]
			ka, kb, ok := t.key(a, b)
			if !ok {
				t.stats.Bypassed++
				continue
			}
			if _, hit, at := t.lookup(ka, kb, a, b); !hit {
				t.insert(at, ka, kb, a, b, compute(a, b))
			}
		}
		return
	case t.inf != nil:
		var hits uint64
		inf := t.inf
		for i, a := range as {
			b := bs[i]
			at, found, sw := inf.walk(a, b)
			if found || sw >= 0 {
				hits++
				continue
			}
			inf.put(at, a, b, compute(a, b), 0)
		}
		t.countColumn(len(as), hits, 0)
	default:
		var hits, evictions uint64
		sets, ways := t.sets, t.ways
		for i, a := range as {
			b := bs[i]
			at := t.index(a, b) * ways
			set := sets[at : at+ways]
			if t.probe(set, a, b) {
				hits++
				continue
			}
			res := compute(a, b)
			last := ways - 1
			if set[last].valid {
				evictions++
			}
			copy(set[1:], set[:last])
			set[0] = entry{a: a, b: b, val: res, valid: true}
		}
		t.countColumn(len(as), hits, evictions)
	}
}

// countColumn adds a full-value column run to the statistics: every pair
// was looked up, and every miss inserted its result.
func (t *Table) countColumn(n int, hits, evictions uint64) {
	misses := uint64(n) - hits
	t.stats.Lookups += uint64(n)
	t.stats.Hits += hits
	t.stats.Misses += misses
	t.stats.Inserts += misses
	t.stats.Evictions += evictions
}
