package memo

import (
	"unsafe"

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
// once, keeping the non-trivial pairs in order. Each class has its own
// loop over the raw bit patterns; the tests are exactly the cases the
// arith.Classify functions mark trivial (classify_test.go holds them to
// each other).
func (c *Column) classify() {
	if c.classified {
		return
	}
	c.classified = true
	c.na, c.nb = c.na[:0], c.nb[:0]
	bs := c.b[:len(c.a)]
	switch c.op {
	case isa.OpIMul:
		for i, a := range c.a {
			if b := bs[i]; a > 1 && b > 1 {
				c.keep(a, b)
			}
		}
	case isa.OpFMul:
		// x*0 and x*1 in either order, unless the other operand is a
		// NaN or an Inf.
		for i, a := range c.a {
			b := bs[i]
			if (zeroOrOne(a) && !special(b)) || (zeroOrOne(b) && !special(a)) {
				continue
			}
			c.keep(a, b)
		}
	case isa.OpFDiv:
		// 0/x for x neither zero nor special, and x/1 for x not special.
		for i, a := range c.a {
			b := bs[i]
			if (b == oneBits && !special(a)) || (isZero(a) && !isZero(b) && !special(b)) {
				continue
			}
			c.keep(a, b)
		}
	case isa.OpFSqrt:
		for i, a := range c.a {
			if !zeroOrOne(a) {
				c.keep(a, bs[i])
			}
		}
	}
}

// keep appends a non-trivial pair.
func (c *Column) keep(a, b uint64) {
	c.na = append(c.na, a)
	c.nb = append(c.nb, b)
}

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3ff0000000000000

// isZero reports whether x is the pattern of +0 or -0.
func isZero(x uint64) bool { return x<<1 == 0 }

// zeroOrOne reports whether x is the pattern of ±0 or of 1.0.
func zeroOrOne(x uint64) bool { return x<<1 == 0 || x == oneBits }

// special reports whether x is a NaN or an Inf: its exponent is all ones.
func special(x uint64) bool { return x>>52&0x7ff == 0x7ff }

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
	case t.ways == 4:
		t.column4(as, bs, compute)
	case t.ways == 1:
		t.column1(as, bs, compute)
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

// column4 is the full-value column loop of a 4-way table. It views the
// flat set slice as [4]entry sets and unrolls probe's walk, promote's
// shift and insert's shift to constant indices: no call, no copy and no
// bounds check per pair. A set's valid ways form a prefix, so testing
// each way's valid bit stands for the walk's stop at the first invalid
// way. The presented order is compared in all four ways before the
// swapped order, which keeps probe's priority. Each way's tag compare is
// one test of both words, (e.a^a)|(e.b^b) == 0: one branch per way, and
// a pair whose first operand matches a way but not its second, common
// where one operand is a coefficient, costs no extra misprediction.
//
// Both kernels index a set as (a^b)>>idxShift & (sets-1). That is
// t.index: the fp mask keeps the mantissa's low 52 bits, and shifting
// them down by 52-idxBits leaves the top idxBits, the same bits the
// set-count mask keeps after the shift; integer tags shift by 0. Masking
// with the slice's own length is what lets the compiler drop the check.
func (t *Table) column4(as, bs []uint64, compute func(a, b uint64) uint64) {
	var hits, evictions uint64
	bs = bs[:len(as)]
	sets := unsafe.Slice((*[4]entry)(unsafe.Pointer(unsafe.SliceData(t.sets))), len(t.sets)/4)
	if len(sets) == 0 {
		return // never: a finite table has a set; the test proves the mask below in range
	}
	shift, comm := t.idxShift, t.comm
	for i, a := range as {
		b := bs[i]
		s := &sets[uint((a^b)>>shift)&uint(len(sets)-1)]
		w := 4
		switch {
		case (s[0].a^a)|(s[0].b^b) == 0 && s[0].valid:
			w = 0
		case (s[1].a^a)|(s[1].b^b) == 0 && s[1].valid:
			w = 1
		case (s[2].a^a)|(s[2].b^b) == 0 && s[2].valid:
			w = 2
		case (s[3].a^a)|(s[3].b^b) == 0 && s[3].valid:
			w = 3
		case !comm:
		case (s[0].a^b)|(s[0].b^a) == 0 && s[0].valid:
			w = 0
		case (s[1].a^b)|(s[1].b^a) == 0 && s[1].valid:
			w = 1
		case (s[2].a^b)|(s[2].b^a) == 0 && s[2].valid:
			w = 2
		case (s[3].a^b)|(s[3].b^a) == 0 && s[3].valid:
			w = 3
		}
		switch w {
		case 0:
		case 1:
			s[0], s[1] = s[1], s[0]
		case 2:
			s[0], s[1], s[2] = s[2], s[0], s[1]
		case 3:
			s[0], s[1], s[2], s[3] = s[3], s[0], s[1], s[2]
		default:
			res := compute(a, b)
			if s[3].valid {
				evictions++
			}
			s[3] = s[2]
			s[2] = s[1]
			s[1] = s[0]
			s[0] = entry{a: a, b: b, val: res, valid: true}
			continue
		}
		hits++
	}
	t.countColumn(len(as), hits, evictions)
}

// column1 is the full-value column loop of a direct-mapped table: one
// entry compared in each order, and a miss overwrites it.
func (t *Table) column1(as, bs []uint64, compute func(a, b uint64) uint64) {
	var hits, evictions uint64
	bs = bs[:len(as)]
	sets := t.sets
	if len(sets) == 0 {
		return // never, as in column4
	}
	shift, comm := t.idxShift, t.comm
	for i, a := range as {
		b := bs[i]
		e := &sets[uint((a^b)>>shift)&uint(len(sets)-1)]
		if e.valid {
			if (e.a == a && e.b == b) || (comm && e.a == b && e.b == a) {
				hits++
				continue
			}
			evictions++
		}
		*e = entry{a: a, b: b, val: compute(a, b), valid: true}
	}
	t.countColumn(len(as), hits, evictions)
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
