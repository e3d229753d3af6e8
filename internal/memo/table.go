package memo

import (
	"math"

	"memotable/internal/arith"
	"memotable/internal/isa"
)

// Table is a MEMO-TABLE: a cache-like lookup table keyed by operand values
// (not instruction addresses — unlike a reuse buffer, a loop-unrolled
// recurrence of the same values still hits, §1.1). One table serves one
// operation class.
//
// Geometry follows §2.1: Entries/Ways sets, each entry holding a large tag
// (the two operand values, or their mantissas) and the one-word result.
// Replacement is LRU within a set. The index hash follows §3.1: integer
// operands XOR their n least significant bits, floating-point operands XOR
// the n most significant bits of their mantissas, where 2^n is the set
// count.
//
// A finite table keeps all its sets in one flat slice, set s at
// sets[s*ways : (s+1)*ways]. Each set is ordered most recently used
// first, so its valid entries always form a prefix, and an access walks
// the set once: it computes the index once, compares the presented and
// (for commutative classes) the swapped operand order in the same walk,
// and on a miss inserts into the set it already found. The infinite table
// is an open-addressing hash table (unbounded.go).
type Table struct {
	op   isa.Op
	cfg  Config
	mant bool // mantissa-only tags in effect
	comm bool // the swapped operand order is compared too (§2.2)
	// A set index is ((ka ^ kb) & idxMask) >> idxShift, which is both
	// §3.1 hashes: integer tags keep their low bits, fp tags keep the
	// top bits of their mantissas.
	idxMask  uint64
	idxShift uint
	ways     int
	sets     []entry
	inf      *unbounded // Entries == 0
	stats    Stats
}

// entry is one way of a finite set: the tag, the stored result and its
// valid bit, packed into 32 bytes.
type entry struct {
	a, b  uint64 // tag
	val   uint64 // the result, or its mantissa in mantissa-only mode
	aux   int32  // mantissa-only mode: result exponent displacement
	valid bool
}

// New builds a MEMO-TABLE for the given operation class. It panics if op
// is not memoizable or the configuration is inconsistent, since both are
// programming errors.
func New(op isa.Op, cfg Config) *Table {
	validateOp(op)
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	t := &Table{op: op, cfg: cfg}
	t.mant = cfg.MantissaOnly && op != isa.OpIMul
	t.comm = op.Commutative() && !cfg.NoCommutativeLookup
	if cfg.Entries == 0 {
		t.inf = newUnbounded(t.comm, t.mant)
		return t
	}
	numSets, idxBits := cfg.sets()
	t.ways = cfg.Entries / numSets
	t.sets = make([]entry, cfg.Entries)
	if op == isa.OpIMul {
		t.idxMask = uint64(numSets - 1)
	} else {
		t.idxMask = 1<<arith.MantissaBits - 1
		t.idxShift = arith.MantissaBits - idxBits
	}
	return t
}

// Op returns the operation class the table serves.
func (t *Table) Op() isa.Op { return t.op }

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns a snapshot of the accumulated statistics.
func (t *Table) Stats() Stats { return t.stats }

// Reset clears all entries and statistics.
func (t *Table) Reset() {
	t.stats = Stats{}
	if t.inf != nil {
		t.inf = newUnbounded(t.comm, t.mant)
		return
	}
	clear(t.sets)
}

// Access performs the full per-operation protocol of §2.2 on raw operand
// bit patterns: present (a, b) to the tag compare; on a hit return the
// stored result in place of the computation; on a miss invoke compute (the
// multi-cycle unit) and insert its result. The returned flag reports a hit.
//
// For unary operations b must be zero. Integer operands are two's
// complement patterns; floating-point operands are IEEE-754 bit patterns.
func (t *Table) Access(a, b uint64, compute func() uint64) (uint64, bool) {
	ka, kb, ok := t.key(a, b)
	if !ok {
		// Operand combination the tagging scheme cannot represent
		// (special or subnormal values in mantissa-only mode): the
		// operands skip the table and go straight to the unit.
		t.stats.Bypassed++
		return compute(), false
	}
	res, hit, at := t.lookup(ka, kb, a, b)
	if hit {
		return res, true
	}
	res = compute()
	t.insert(at, ka, kb, a, b, res)
	return res, false
}

// Lookup probes the table without inserting on a miss and without invoking
// any unit. It still updates recency and statistics, making it suitable
// for trace-driven hit-ratio measurement where results are not needed.
func (t *Table) Lookup(a, b uint64) (uint64, bool) {
	ka, kb, ok := t.key(a, b)
	if !ok {
		t.stats.Bypassed++
		return 0, false
	}
	res, hit, _ := t.lookup(ka, kb, a, b)
	return res, hit
}

// Insert stores the result for the operand pair, as the unit does when a
// computation completes after a miss (§2.2: "in parallel entered into the
// MEMO-TABLE").
func (t *Table) Insert(a, b, result uint64) {
	ka, kb, ok := t.key(a, b)
	if !ok {
		return
	}
	var at int
	if t.inf != nil {
		at, _, _ = t.inf.walk(ka, kb)
	} else {
		at = t.index(ka, kb) * t.ways
	}
	t.insert(at, ka, kb, a, b, result)
}

// lookup presents the tag (ka, kb) of operands (a, b) to the compare and
// counts the outcome. On a hit it returns the result; either way it
// returns where an insert of the tag goes: the first way of its set, or
// the unbounded table's slot for it.
func (t *Table) lookup(ka, kb, a, b uint64) (res uint64, hit bool, at int) {
	t.stats.Lookups++
	var val uint64
	var aux int32
	if t.inf != nil {
		// A presented-order match wins over a swapped one. The insert
		// position is the presented order's slot, or the empty slot
		// that ended its walk, even after a swapped-order hit.
		var found bool
		var sw int
		at, found, sw = t.inf.walk(ka, kb)
		if found {
			sw = at
		}
		if hit = sw >= 0; hit {
			val, aux = t.inf.slots[sw].val, t.inf.auxAt(sw)
		}
	} else {
		at = t.index(ka, kb) * t.ways
		if hit = t.probe(t.sets[at:at+t.ways], ka, kb); hit {
			val, aux = t.sets[at].val, t.sets[at].aux
		}
	}
	if hit {
		if res, ok := t.reconstruct(val, aux, a, b); ok {
			t.stats.Hits++
			return res, true, at
		}
		// Reconstruction out of range (mantissa-only mode only): the
		// range check in the comparator rejects the hit.
	}
	t.stats.Misses++
	return 0, false, at
}

// key derives the tag for the operand pair, reporting false when the
// tagging scheme cannot represent the pair.
func (t *Table) key(a, b uint64) (ka, kb uint64, ok bool) {
	if !t.mant {
		return a, b, true
	}
	// Mantissa-only tags (§2.1 variation 1, Table 10). Specials and
	// subnormals have no hidden-bit-normalized mantissa; they bypass.
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	if !normalFinite(fa) || (!t.op.Unary() && !normalFinite(fb)) {
		return 0, 0, false
	}
	ka = arith.Mantissa(fa)
	if t.op == isa.OpFSqrt {
		// The result mantissa of sqrt depends on the exponent's parity.
		ka |= uint64(arith.Unpack(fa).Exponent&1) << 63
	}
	if !t.op.Unary() {
		kb = arith.Mantissa(fb)
	}
	return ka, kb, true
}

func normalFinite(x float64) bool {
	f := arith.Unpack(x)
	return f.Exponent != 0 && f.Exponent != arith.ExponentMax
}

// index hashes a tag to a set number (§3.1). The sqrt parity bit of a
// mantissa-only tag (bit 63) lies outside the fp mask.
func (t *Table) index(ka, kb uint64) int {
	return int((ka ^ kb) & t.idxMask >> t.idxShift)
}

// probe walks set once, most recently used first, stopping at the first
// invalid way. The first way holding the presented order wins; failing
// that, the first holding the swapped order does (commutative classes
// only). A hit moves the matching entry to set[0], the MRU position, which
// is how MRU ordering implements LRU eviction.
func (t *Table) probe(set []entry, ka, kb uint64) bool {
	swapped := -1
	for w := range set {
		e := &set[w]
		if !e.valid {
			break
		}
		if e.a == ka && e.b == kb {
			promote(set, w)
			return true
		}
		if t.comm && swapped < 0 && e.a == kb && e.b == ka {
			swapped = w
		}
	}
	if swapped < 0 {
		return false
	}
	promote(set, swapped)
	return true
}

// promote moves set[w] to the MRU position, shifting the ways before it
// down by one.
func promote(set []entry, w int) {
	if w == 0 {
		return
	}
	e := set[w]
	copy(set[1:w+1], set[:w])
	set[0] = e
}

// insert stores the result for tag (ka, kb) at position at, as lookup
// returned it. A finite table writes the set's MRU way, evicting its LRU
// entry if the set is full; the unbounded table writes the slot.
func (t *Table) insert(at int, ka, kb, a, b, result uint64) {
	val, aux, ok := t.encode(a, b, result)
	if !ok {
		return // result not representable under mantissa-only tagging
	}
	t.stats.Inserts++
	if t.inf != nil {
		t.inf.put(at, ka, kb, val, aux)
		return
	}
	set := t.sets[at : at+t.ways]
	last := len(set) - 1
	if set[last].valid {
		t.stats.Evictions++
	}
	copy(set[1:], set[:last])
	e := &set[0]
	e.a, e.b, e.val, e.aux, e.valid = ka, kb, val, aux, true
}

// encode prepares the stored form of a result. In full-value mode this is
// the result itself; in mantissa-only mode it is the result's mantissa
// plus its exponent displacement from the operand exponents, so the hit
// path can rebuild the full value for operands that share mantissas but
// not exponents.
func (t *Table) encode(a, b, result uint64) (val uint64, aux int32, ok bool) {
	if !t.mant {
		return result, 0, true
	}
	fr := math.Float64frombits(result)
	if !normalFinite(fr) {
		return 0, 0, false
	}
	er := arith.Unpack(fr).Exponent
	return arith.Mantissa(fr), int32(er - t.expBase(a, b)), true
}

// reconstruct rebuilds the full result on a hit. In mantissa-only mode the
// reconstructed exponent must land in the normal range or the comparator
// rejects the hit (ok == false): this keeps memoized results bit-exact.
func (t *Table) reconstruct(val uint64, aux int32, a, b uint64) (uint64, bool) {
	if !t.mant {
		return val, true
	}
	return t.reconstructMantissa(val, aux, a, b)
}

// reconstructMantissa is reconstruct's mantissa-only half, kept apart so
// the full-value hit path inlines.
func (t *Table) reconstructMantissa(val uint64, aux int32, a, b uint64) (uint64, bool) {
	er := t.expBase(a, b) + int(aux)
	if er <= 0 || er >= arith.ExponentMax {
		return 0, false
	}
	sign := false
	if t.op == isa.OpFMul || t.op == isa.OpFDiv {
		sign = (a^b)&(1<<63) != 0
	}
	return math.Float64bits(arith.Pack(arith.Fields{
		Sign:     sign,
		Exponent: er,
		Mantissa: val,
	})), true
}

// expBase combines the operands' biased exponents the way the operation's
// exponent datapath does: sum for multiply, difference for divide, halving
// for square root (all up to the stored displacement).
func (t *Table) expBase(a, b uint64) int {
	ea := arith.Unpack(math.Float64frombits(a)).Exponent
	switch t.op {
	case isa.OpFMul:
		eb := arith.Unpack(math.Float64frombits(b)).Exponent
		return ea + eb - arith.ExponentBias
	case isa.OpFDiv:
		eb := arith.Unpack(math.Float64frombits(b)).Exponent
		return ea - eb + arith.ExponentBias
	case isa.OpFSqrt:
		return (ea-arith.ExponentBias)/2 + arith.ExponentBias
	default:
		return 0
	}
}

// Len returns the number of valid entries (useful for tests and for
// sizing reports).
func (t *Table) Len() int {
	if t.inf != nil {
		return t.inf.n
	}
	n := 0
	for i := range t.sets {
		if t.sets[i].valid {
			n++
		}
	}
	return n
}
