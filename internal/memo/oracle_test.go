package memo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"memotable/internal/arith"
	"memotable/internal/isa"
)

// oracle is a deliberately naive MEMO-TABLE: a map from set number to an
// explicit LRU list (most recent first), an unbounded map for Entries 0,
// and the §2.2 protocol written out step by step. It shares no code with
// Table beyond the Config and Stats types, so lockstep agreement checks
// the optimised table's indexing, set walk, recency and eviction, and its
// mantissa-only encoding, against a plain reading of the paper.
type oracle struct {
	op      isa.Op
	cfg     Config
	numSets uint64
	idxBits uint
	ways    int
	sets    map[uint64][]oracleEntry
	inf     map[[2]uint64]oracleEntry
	stats   Stats
}

type oracleEntry struct {
	tag [2]uint64
	val uint64 // the result, or its mantissa in mantissa-only mode
	exp int    // mantissa-only mode: result exponent minus operand base
}

func newOracle(op isa.Op, cfg Config) *oracle {
	o := &oracle{op: op, cfg: cfg, sets: map[uint64][]oracleEntry{}, inf: map[[2]uint64]oracleEntry{}}
	if cfg.Entries > 0 {
		o.ways = cfg.Ways
		if o.ways == 0 || o.ways > cfg.Entries {
			o.ways = cfg.Entries
		}
		o.numSets = uint64(cfg.Entries / o.ways)
		for n := o.numSets; n > 1; n >>= 1 {
			o.idxBits++
		}
	}
	return o
}

func (o *oracle) mantissaTags() bool { return o.cfg.MantissaOnly && o.op != isa.OpIMul }

func normalBits(x uint64) bool {
	e := x >> 52 & 0x7ff
	return e != 0 && e != 0x7ff
}

// tag is the compared operand pair; ok is false when mantissa-only
// tagging cannot represent an operand (specials and subnormals bypass).
func (o *oracle) tag(a, b uint64) (t [2]uint64, ok bool) {
	if !o.mantissaTags() {
		return [2]uint64{a, b}, true
	}
	if !normalBits(a) || (!o.op.Unary() && !normalBits(b)) {
		return t, false
	}
	t[0] = a & (1<<52 - 1)
	if o.op == isa.OpFSqrt {
		t[0] |= (a >> 52 & 1) << 63 // sqrt's mantissa depends on exponent parity
	}
	if !o.op.Unary() {
		t[1] = b & (1<<52 - 1)
	}
	return t, true
}

// set is the §3.1 index: integer tags XOR their low bits, fp tags XOR the
// top idxBits of their 52-bit mantissas.
func (o *oracle) set(t [2]uint64) uint64 {
	if o.op == isa.OpIMul {
		return (t[0] ^ t[1]) % o.numSets
	}
	top := func(x uint64) uint64 { return x & (1<<52 - 1) >> (52 - o.idxBits) }
	return (top(t[0]) ^ top(t[1])) % o.numSets
}

// base is the exponent the operation's datapath derives from its operands.
func (o *oracle) base(a, b uint64) int {
	ea, eb := int(a>>52&0x7ff), int(b>>52&0x7ff)
	switch o.op {
	case isa.OpFMul:
		return ea + eb - 1023
	case isa.OpFDiv:
		return ea - eb + 1023
	}
	return (ea-1023)/2 + 1023
}

// find returns the position of t in the LRU list l, or -1.
func find(l []oracleEntry, t [2]uint64) int {
	for i, e := range l {
		if e.tag == t {
			return i
		}
	}
	return -1
}

// probe looks up the presented order, then the swapped order for
// commutative classes, moving a finite hit to the front of its list.
func (o *oracle) probe(t [2]uint64) (oracleEntry, bool) {
	orders := [][2]uint64{t}
	if o.op.Commutative() && !o.cfg.NoCommutativeLookup && t[0] != t[1] {
		orders = append(orders, [2]uint64{t[1], t[0]})
	}
	for _, k := range orders {
		if o.cfg.Entries == 0 {
			if e, ok := o.inf[k]; ok {
				return e, true
			}
			continue
		}
		s := o.set(k)
		l := o.sets[s]
		if i := find(l, k); i >= 0 {
			e := l[i]
			o.sets[s] = append([]oracleEntry{e}, append(l[:i:i], l[i+1:]...)...)
			return e, true
		}
	}
	return oracleEntry{}, false
}

// result rebuilds a hit's value, or reports that the comparator's range
// check rejects it.
func (o *oracle) result(e oracleEntry, a, b uint64) (uint64, bool) {
	if !o.mantissaTags() {
		return e.val, true
	}
	exp := o.base(a, b) + e.exp
	if exp <= 0 || exp >= 0x7ff {
		return 0, false
	}
	sign := uint64(0)
	if o.op != isa.OpFSqrt {
		sign = (a ^ b) & (1 << 63)
	}
	return sign | uint64(exp)<<52 | e.val, true
}

func (o *oracle) insert(t [2]uint64, a, b, res uint64) {
	e := oracleEntry{tag: t, val: res}
	if o.mantissaTags() {
		if !normalBits(res) {
			return
		}
		e.val = res & (1<<52 - 1)
		e.exp = int(res>>52&0x7ff) - o.base(a, b)
	}
	o.stats.Inserts++
	if o.cfg.Entries == 0 {
		o.inf[t] = e
		return
	}
	s := o.set(t)
	l := append([]oracleEntry{e}, o.sets[s]...)
	if len(l) > o.ways {
		o.stats.Evictions++
		l = l[:o.ways]
	}
	o.sets[s] = l
}

func (o *oracle) Lookup(a, b uint64) (uint64, bool) {
	t, ok := o.tag(a, b)
	if !ok {
		o.stats.Bypassed++
		return 0, false
	}
	o.stats.Lookups++
	if e, hit := o.probe(t); hit {
		if res, ok := o.result(e, a, b); ok {
			o.stats.Hits++
			return res, true
		}
	}
	o.stats.Misses++
	return 0, false
}

func (o *oracle) Access(a, b uint64, compute func() uint64) (uint64, bool) {
	if _, ok := o.tag(a, b); !ok {
		o.stats.Bypassed++
		return compute(), false
	}
	if res, hit := o.Lookup(a, b); hit {
		return res, true
	}
	res := compute()
	o.Insert(a, b, res)
	return res, false
}

func (o *oracle) Insert(a, b, res uint64) {
	if t, ok := o.tag(a, b); ok {
		o.insert(t, a, b, res)
	}
}

func (o *oracle) Reset() { *o = *newOracle(o.op, o.cfg) }

func (o *oracle) Len() int {
	n := len(o.inf)
	for _, l := range o.sets {
		n += len(l)
	}
	return n
}

// Apply is Unit.Apply over the oracle: trivial operations answer from the
// detectors unless the policy caches everything.
func (o *oracle) Apply(policy TrivialPolicy, a, b uint64) (uint64, Outcome) {
	var tr arith.Triviality
	var res uint64
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	switch o.op {
	case isa.OpIMul:
		var r int64
		tr, r = arith.ClassifyIMul(int64(a), int64(b))
		res = uint64(r)
	case isa.OpFMul:
		var r float64
		tr, r = arith.ClassifyFMul(fa, fb)
		res = math.Float64bits(r)
	case isa.OpFDiv:
		var r float64
		tr, r = arith.ClassifyFDiv(fa, fb)
		res = math.Float64bits(r)
	case isa.OpFSqrt:
		var r float64
		tr, r = arith.ClassifyFSqrt(fa)
		res = math.Float64bits(r)
	}
	if tr.Trivial() && policy != CacheAll {
		o.stats.Trivial++
		return res, Trivial
	}
	res, hit := o.Access(a, b, func() uint64 { return hostCompute(o.op)(a, b) })
	if hit {
		return res, Hit
	}
	return res, Miss
}

// oracleGeometries are the lockstep-checked shapes: every power-of-two
// size from 8 to 8192 entries at 1, 2 and 4 ways, fully associative
// tables, the unbounded table, and then every size at 8 ways. The 8-way
// shapes come last so the earlier shapes keep their stream seeds in
// TestTableMatchesOracle.
func oracleGeometries() []Config {
	var cfgs []Config
	for n := 8; n <= 8192; n *= 2 {
		for _, w := range []int{1, 2, 4} {
			cfgs = append(cfgs, Config{Entries: n, Ways: w})
		}
	}
	cfgs = append(cfgs, Config{Entries: 8}, Config{Entries: 64, Ways: 64}, Config{Entries: 16, Ways: 32}, Config{})
	for n := 8; n <= 8192; n *= 2 {
		cfgs = append(cfgs, Config{Entries: n, Ways: 8})
	}
	return cfgs
}

// operandPool draws a small universe of operand patterns for op, so
// streams revisit pairs (hits), overflow sets (evictions) and present both
// operand orders. Floating-point values share a few mantissas across
// exponents at both ends of the range, so mantissa-only tags collide and
// some reconstructions leave the normal range; the pool also holds the
// trivial operands, specials and a subnormal.
func operandPool(rng *rand.Rand, op isa.Op, size int) []uint64 {
	pool := make([]uint64, 0, size+8)
	if op == isa.OpIMul {
		pool = append(pool, 0, 1, ^uint64(0), 1<<63)
		for len(pool) < cap(pool) {
			pool = append(pool, uint64(rng.Int63n(1<<20))<<uint(rng.Intn(44))|uint64(rng.Intn(2))<<63)
		}
		return pool
	}
	pool = append(pool, 0, math.Float64bits(1), math.Float64bits(-1),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), 1) // 1: smallest subnormal
	mants := make([]uint64, 1+size/8)
	for i := range mants {
		mants[i] = rng.Uint64() & (1<<52 - 1)
	}
	exps := []uint64{1, 2, 500, 1022, 1023, 1024, 1500, 2045, 2046}
	for len(pool) < cap(pool) {
		e := exps[rng.Intn(len(exps))]
		pool = append(pool, uint64(rng.Intn(2))<<63|e<<52|mants[rng.Intn(len(mants))])
	}
	return pool
}

// columnCheck is one unit the lockstep drives through the batch path:
// column steps reach it through ApplyColumn, while its twin takes the
// same pairs one Apply at a time and its oracle replays them too.
type columnCheck struct {
	name        string
	policy      TrivialPolicy
	batch, twin *Unit
	ora         *oracle
}

func newColumnCheck(op isa.Op, cfg Config, policy TrivialPolicy) *columnCheck {
	return &columnCheck{
		name:   fmt.Sprintf("%dx%d/mant=%v/%v", cfg.Entries, cfg.Ways, cfg.MantissaOnly, policy),
		policy: policy,
		batch:  NewUnit(New(op, cfg), policy, nil),
		twin:   NewUnit(New(op, cfg), policy, nil),
		ora:    newOracle(op, cfg),
	}
}

// verify holds the batch unit to its twin (counters, statistics and the
// exact table state) and to the oracle (statistics and Len, and with
// stored set, every stored entry and result).
func (c *columnCheck) verify(t *testing.T, step int, stored bool) {
	t.Helper()
	b, w := c.batch, c.twin
	if b.TotalOps() != w.TotalOps() || b.TrivialOps() != w.TrivialOps() {
		t.Fatalf("step %d column %s: ops %d/%d trivial, per-event twin %d/%d",
			step, c.name, b.TotalOps(), b.TrivialOps(), w.TotalOps(), w.TrivialOps())
	}
	if s, ws, os := b.Table().Stats(), w.Table().Stats(), c.ora.stats; s != ws || s != os {
		t.Fatalf("step %d column %s: stats %+v, per-event twin %+v, oracle %+v", step, c.name, s, ws, os)
	}
	if n, o := b.Table().Len(), c.ora.Len(); n != o {
		t.Fatalf("step %d column %s: Len %d, oracle %d", step, c.name, n, o)
	}
	if !sameState(b.Table(), w.Table()) {
		t.Fatalf("step %d column %s: table state differs from its per-event twin", step, c.name)
	}
	if !stored {
		return
	}
	if got, want := contents(b.Table()), c.ora.contents(); !slices.Equal(got, want) {
		t.Fatalf("step %d column %s: stored entries\n%v\noracle\n%v", step, c.name, got, want)
	}
}

// sameState reports whether two tables hold identical entries in
// identical positions.
func sameState(x, y *Table) bool {
	if x.inf == nil || y.inf == nil {
		return x.inf == y.inf && slices.Equal(x.sets, y.sets)
	}
	return x.inf.n == y.inf.n && slices.Equal(x.inf.ctrl, y.inf.ctrl) &&
		slices.Equal(x.inf.slots, y.inf.slots) && slices.Equal(x.inf.aux, y.inf.aux)
}

// storedEntry is one entry as the oracle sees it: set number (0 for the
// unbounded table), recency rank within the set, tag and stored result.
type storedEntry struct {
	set  uint64
	rank int
	tag  [2]uint64
	val  uint64
	exp  int
}

// contents lists a table's valid entries: a finite table's in set order,
// most recent first, and the unbounded table's sorted by tag.
func contents(t *Table) []storedEntry {
	var out []storedEntry
	if t.inf != nil {
		for i, c := range t.inf.ctrl {
			if c != 0 {
				s := t.inf.slots[i]
				out = append(out, storedEntry{tag: [2]uint64{s.a, s.b}, val: s.val, exp: int(t.inf.auxAt(i))})
			}
		}
		sortEntries(out)
		return out
	}
	for i, e := range t.sets {
		if e.valid {
			out = append(out, storedEntry{set: uint64(i / t.ways), rank: i % t.ways, tag: [2]uint64{e.a, e.b}, val: e.val, exp: int(e.aux)})
		}
	}
	return out
}

// contents lists the oracle's entries in the order contents(Table) does.
func (o *oracle) contents() []storedEntry {
	var out []storedEntry
	if o.cfg.Entries == 0 {
		for tag, e := range o.inf {
			out = append(out, storedEntry{tag: tag, val: e.val, exp: e.exp})
		}
		sortEntries(out)
		return out
	}
	for s := uint64(0); s < o.numSets; s++ {
		for r, e := range o.sets[s] {
			out = append(out, storedEntry{set: s, rank: r, tag: e.tag, val: e.val, exp: e.exp})
		}
	}
	return out
}

func sortEntries(es []storedEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].tag[0] != es[j].tag[0] {
			return es[i].tag[0] < es[j].tag[0]
		}
		return es[i].tag[1] < es[j].tag[1]
	})
}

// lockstep drives a Table, a Unit over a second Table, and two oracles
// through one random stream of Access, Lookup, Insert, Reset, Apply and
// column steps, failing at the first divergence in a result, hit flag,
// outcome, Stats or Len. A column step presents a run of pairs through
// one Column to the Unit and to two more units of other geometries,
// tagging schemes and policies at once (columnCheck); their stored
// entries are held to the oracles' at the end of the stream. A column
// holds fewer than 64 pairs, or with long set, a full engine batch.
func lockstep(t *testing.T, op isa.Op, cfg Config, policy TrivialPolicy, seed int64, steps int, long bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	size := 8
	for size*size < 4*cfg.Entries {
		size *= 2
	}
	pool := operandPool(rng, op, size)
	tab, ora := New(op, cfg), newOracle(op, cfg)
	lead := newColumnCheck(op, cfg, policy)
	unit, uora := lead.batch, lead.ora
	checks := []*columnCheck{lead}
	var geos []Config
	for _, c := range oracleGeometries() {
		if c.Entries <= 256 {
			geos = append(geos, c)
		}
	}
	for len(checks) < 3 {
		c := geos[rng.Intn(len(geos))]
		c.MantissaOnly, c.NoCommutativeLookup = rng.Intn(2) == 0, rng.Intn(4) == 0
		checks = append(checks, newColumnCheck(op, c, TrivialPolicy((int(policy)+len(checks))%3)))
	}
	var col Column
	compute := hostCompute(op)
	draw := func() (uint64, uint64) {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if op.Unary() {
			b = 0
		}
		return a, b
	}
	for step := 0; step < steps; step++ {
		a, b := draw()
		var got, want uint64
		var gotHit, wantHit bool
		kind := rng.Intn(100)
		switch {
		case kind < 40:
			got, gotHit = tab.Access(a, b, func() uint64 { return compute(a, b) })
			want, wantHit = ora.Access(a, b, func() uint64 { return compute(a, b) })
		case kind < 55:
			got, gotHit = tab.Lookup(a, b)
			want, wantHit = ora.Lookup(a, b)
		case kind < 65:
			// Half the inserts store an arbitrary result, as a caller
			// may: mantissa-only tags then encode far-off exponents.
			res := compute(a, b)
			if rng.Intn(2) == 0 {
				res = rng.Uint64()
			}
			tab.Insert(a, b, res)
			ora.Insert(a, b, res)
		case kind < 66 && rng.Intn(20) == 0:
			tab.Reset()
			ora.Reset()
		case kind < 70:
			col.Reset(op)
			n := rng.Intn(64)
			if long {
				n = engineBatch
			}
			for ; n > 0; n-- {
				col.Push(draw())
			}
			for _, c := range checks {
				c.batch.ApplyColumn(&col)
				for i, ca := range col.a {
					c.twin.Apply(ca, col.b[i])
					c.ora.Apply(c.policy, ca, col.b[i])
				}
				c.verify(t, step, false)
			}
		default:
			var gotOut, wantOut Outcome
			got, gotOut = unit.Apply(a, b)
			want, wantOut = uora.Apply(policy, a, b)
			lead.twin.Apply(a, b)
			gotHit, wantHit = gotOut == Hit, wantOut == Hit
			if gotOut != wantOut {
				t.Fatalf("step %d Apply(%#x, %#x): outcome %v, oracle %v", step, a, b, gotOut, wantOut)
			}
			if s, w := unit.Table().Stats(), uora.stats; s != w {
				t.Fatalf("step %d Apply(%#x, %#x): unit stats %+v, oracle %+v", step, a, b, s, w)
			}
			if n, w := unit.Table().Len(), uora.Len(); n != w {
				t.Fatalf("step %d Apply: unit Len %d, oracle %d", step, n, w)
			}
		}
		if got != want || gotHit != wantHit {
			t.Fatalf("step %d (kind %d) on (%#x, %#x): got %#x hit=%v, oracle %#x hit=%v",
				step, kind, a, b, got, gotHit, want, wantHit)
		}
		if s, w := tab.Stats(), ora.stats; s != w {
			t.Fatalf("step %d (kind %d) on (%#x, %#x): stats %+v, oracle %+v", step, kind, a, b, s, w)
		}
		if n, w := tab.Len(), ora.Len(); n != w {
			t.Fatalf("step %d (kind %d): Len %d, oracle %d", step, kind, n, w)
		}
	}
	for _, c := range checks {
		c.verify(t, steps, true)
	}
}

// TestTableMatchesOracle runs every geometry, class, tagging scheme and
// commutative-lookup setting in lockstep with the oracle.
func TestTableMatchesOracle(t *testing.T) {
	policies := []TrivialPolicy{CacheAll, NonTrivialOnly, Integrated}
	seed := int64(1)
	for _, cfg := range oracleGeometries() {
		for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
			for _, mant := range []bool{false, true} {
				for _, noComm := range []bool{false, true} {
					c := cfg
					c.MantissaOnly, c.NoCommutativeLookup = mant, noComm
					seed++
					policy := policies[seed%3]
					name := fmt.Sprintf("%dx%d/%v/mant=%v/nocomm=%v/%v", c.Entries, c.Ways, op, mant, noComm, policy)
					t.Run(name, func(t *testing.T) { lockstep(t, op, c, policy, seed, 1500, false) })
				}
			}
		}
	}
}

// engineBatch is the length of the batches the engine delivers to its
// sinks, and so the most pairs one column of a replay holds.
const engineBatch = 8192

// TestLongColumnsMatchOracle runs the lockstep with every column step a
// full engine batch, over the geometries with their own column kernels
// (1 and 4 ways), an 8-way table on the generic loop and the unbounded
// table.
func TestLongColumnsMatchOracle(t *testing.T) {
	policies := []TrivialPolicy{CacheAll, NonTrivialOnly, Integrated}
	seed := int64(100)
	for _, cfg := range []Config{{Entries: 32, Ways: 4}, {Entries: 8192, Ways: 4}, {Entries: 32, Ways: 1}, {Entries: 32, Ways: 8}, {}} {
		for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
			seed++
			policy := policies[seed%3]
			name := fmt.Sprintf("%dx%d/%v/%v", cfg.Entries, cfg.Ways, op, policy)
			t.Run(name, func(t *testing.T) { lockstep(t, op, cfg, policy, seed, 200, true) })
		}
	}
}

// FuzzTableMatchesOracle explores streams and geometries beyond the fixed
// seeds: the input picks the class, geometry, tagging scheme, policy and
// stream seed.
func FuzzTableMatchesOracle(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), int64(7))
	f.Add(uint8(0), uint8(40), uint8(3), int64(11))
	f.Add(uint8(2), uint8(99), uint8(5), int64(-3))
	ops := []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt}
	geos := oracleGeometries()
	f.Fuzz(func(t *testing.T, op, geo, flags uint8, seed int64) {
		c := geos[int(geo)%len(geos)]
		c.MantissaOnly, c.NoCommutativeLookup = flags&1 != 0, flags&2 != 0
		policy := TrivialPolicy(flags >> 2 % 3)
		lockstep(t, ops[int(op)%len(ops)], c, policy, seed, 400, false)
	})
}
