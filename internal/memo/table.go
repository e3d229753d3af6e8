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
type Table struct {
	op      isa.Op
	cfg     Config
	numSets int
	idxBits uint
	ways    int
	sets    [][]entry // MRU-first within each set
	inf     map[tagKey]stored
	stats   Stats
}

type tagKey struct{ a, b uint64 }

type stored struct {
	val uint64
	aux int32 // mantissa-only mode: result exponent displacement
}

type entry struct {
	tag tagKey
	stored
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
	if cfg.Entries == 0 {
		t.inf = make(map[tagKey]stored)
		return t
	}
	t.numSets, t.idxBits = cfg.sets()
	t.ways = cfg.Entries / t.numSets
	t.sets = make([][]entry, t.numSets)
	backing := make([]entry, cfg.Entries)
	for i := range t.sets {
		t.sets[i], backing = backing[:t.ways], backing[t.ways:]
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
		t.inf = make(map[tagKey]stored)
		return
	}
	for _, set := range t.sets {
		for i := range set {
			set[i] = entry{}
		}
	}
}

// Access performs the full per-operation protocol of §2.2 on raw operand
// bit patterns: present (a, b) to the tag compare; on a hit return the
// stored result in place of the computation; on a miss invoke compute (the
// multi-cycle unit) and insert its result. The returned flag reports a hit.
//
// For unary operations b must be zero. Integer operands are two's
// complement patterns; floating-point operands are IEEE-754 bit patterns.
func (t *Table) Access(a, b uint64, compute func() uint64) (uint64, bool) {
	key, ok := t.key(a, b)
	if !ok {
		// Operand combination the tagging scheme cannot represent
		// (special or subnormal values in mantissa-only mode): the
		// operands skip the table and go straight to the unit.
		t.stats.Bypassed++
		return compute(), false
	}
	t.stats.Lookups++
	if st, hit := t.probe(key); hit {
		if res, ok := t.reconstruct(st, a, b); ok {
			t.stats.Hits++
			return res, true
		}
		// Reconstruction out of range (mantissa-only mode only): the
		// range check in the comparator rejects the hit.
	}
	t.stats.Misses++
	res := compute()
	t.insert(key, a, b, res)
	return res, false
}

// Lookup probes the table without inserting on a miss and without invoking
// any unit. It still updates recency and statistics, making it suitable
// for trace-driven hit-ratio measurement where results are not needed.
func (t *Table) Lookup(a, b uint64) (uint64, bool) {
	key, ok := t.key(a, b)
	if !ok {
		t.stats.Bypassed++
		return 0, false
	}
	t.stats.Lookups++
	if st, hit := t.probe(key); hit {
		if res, ok := t.reconstruct(st, a, b); ok {
			t.stats.Hits++
			return res, true
		}
	}
	t.stats.Misses++
	return 0, false
}

// Insert stores the result for the operand pair, as the unit does when a
// computation completes after a miss (§2.2: "in parallel entered into the
// MEMO-TABLE").
func (t *Table) Insert(a, b, result uint64) {
	key, ok := t.key(a, b)
	if !ok {
		return
	}
	t.insert(key, a, b, result)
}

// key derives the tag for the operand pair, reporting false when the
// tagging scheme cannot represent the pair.
func (t *Table) key(a, b uint64) (tagKey, bool) {
	if !t.mantissaMode() {
		return tagKey{a, b}, true
	}
	// Mantissa-only tags (§2.1 variation 1, Table 10). Specials and
	// subnormals have no hidden-bit-normalized mantissa; they bypass.
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	if !normalFinite(fa) || (!t.op.Unary() && !normalFinite(fb)) {
		return tagKey{}, false
	}
	ka := arith.Mantissa(fa)
	if t.op == isa.OpFSqrt {
		// The result mantissa of sqrt depends on the exponent's parity.
		ka |= uint64(arith.Unpack(fa).Exponent&1) << 63
	}
	kb := uint64(0)
	if !t.op.Unary() {
		kb = arith.Mantissa(fb)
	}
	return tagKey{ka, kb}, true
}

func (t *Table) mantissaMode() bool {
	return t.cfg.MantissaOnly && t.op != isa.OpIMul
}

func normalFinite(x float64) bool {
	f := arith.Unpack(x)
	return f.Exponent != 0 && f.Exponent != arith.ExponentMax
}

// probe looks the key up (both operand orders for commutative classes) and
// updates recency on a hit. The swapped key is derived only after the
// presented order misses, keeping the common first-probe hit free of it.
func (t *Table) probe(key tagKey) (stored, bool) {
	if st, ok := t.probeOne(key); ok {
		return st, true
	}
	if t.op.Commutative() && !t.cfg.NoCommutativeLookup && key.a != key.b {
		return t.probeOne(tagKey{key.b, key.a})
	}
	return stored{}, false
}

// probeOne looks up one tag in its set.
func (t *Table) probeOne(key tagKey) (stored, bool) {
	if t.inf != nil {
		st, ok := t.inf[key]
		return st, ok
	}
	si := t.index(key)
	set := t.sets[si]
	if t.ways == 1 {
		// Direct-mapped: single compare, no recency state to maintain.
		if set[0].valid && set[0].tag == key {
			return set[0].stored, true
		}
		return stored{}, false
	}
	for w := range set {
		if set[w].valid && set[w].tag == key {
			st := set[w].stored
			// Move to front: MRU ordering implements LRU eviction.
			e := set[w]
			copy(set[1:w+1], set[:w])
			set[0] = e
			return st, true
		}
	}
	return stored{}, false
}

// insert writes the entry at the MRU position of its set, evicting the LRU
// entry if the set is full.
func (t *Table) insert(key tagKey, a, b, result uint64) {
	st, ok := t.encode(a, b, result)
	if !ok {
		return // result not representable under mantissa-only tagging
	}
	t.stats.Inserts++
	if t.inf != nil {
		t.inf[key] = st
		return
	}
	si := t.index(key)
	set := t.sets[si]
	if set[len(set)-1].valid {
		t.stats.Evictions++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = entry{tag: key, stored: st, valid: true}
}

// index hashes a tag to a set number (§3.1).
func (t *Table) index(key tagKey) int {
	if t.numSets == 1 {
		return 0
	}
	mask := uint64(t.numSets - 1)
	if t.op == isa.OpIMul {
		return int((key.a ^ key.b) & mask)
	}
	if t.mantissaMode() {
		// Tags are already mantissas; take their top stored bits.
		ha := (key.a &^ (1 << 63)) >> (arith.MantissaBits - t.idxBits)
		hb := key.b >> (arith.MantissaBits - t.idxBits)
		return int((ha ^ hb) & mask)
	}
	ha := arith.MantissaMSBs(math.Float64frombits(key.a), t.idxBits)
	hb := arith.MantissaMSBs(math.Float64frombits(key.b), t.idxBits)
	return int((ha ^ hb) & mask)
}

// encode prepares the stored form of a result. In full-value mode this is
// the result itself; in mantissa-only mode it is the result's mantissa
// plus its exponent displacement from the operand exponents, so the hit
// path can rebuild the full value for operands that share mantissas but
// not exponents.
func (t *Table) encode(a, b, result uint64) (stored, bool) {
	if !t.mantissaMode() {
		return stored{val: result}, true
	}
	fr := math.Float64frombits(result)
	if !normalFinite(fr) {
		return stored{}, false
	}
	er := arith.Unpack(fr).Exponent
	return stored{
		val: arith.Mantissa(fr),
		aux: int32(er - t.expBase(a, b)),
	}, true
}

// reconstruct rebuilds the full result on a hit. In mantissa-only mode the
// reconstructed exponent must land in the normal range or the comparator
// rejects the hit (ok == false): this keeps memoized results bit-exact.
func (t *Table) reconstruct(st stored, a, b uint64) (uint64, bool) {
	if !t.mantissaMode() {
		return st.val, true
	}
	er := t.expBase(a, b) + int(st.aux)
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
		Mantissa: st.val,
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
		return len(t.inf)
	}
	n := 0
	for _, set := range t.sets {
		for _, e := range set {
			if e.valid {
				n++
			}
		}
	}
	return n
}
