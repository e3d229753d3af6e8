package memo

import (
	"fmt"
	"math/rand"
	"testing"

	"memotable/internal/isa"
)

// mirrorGeometries are the shapes twins are checked on: the paper's
// 32/4 table, a direct-mapped and an 8-way table of 32 entries, and a
// small 4-way table.
var mirrorGeometries = []Config{{Entries: 32, Ways: 4}, {Entries: 32, Ways: 1}, {Entries: 8, Ways: 4}, {Entries: 32, Ways: 8}}

// twinsOf groups units in order.
func twinsOf(units ...*Unit) *Twins {
	g := &Twins{}
	for _, u := range units {
		g.Add(u)
	}
	return g
}

// mirrorLockstep runs three units as Twins over one random stream of
// columns: a warm unit, which has seen a stream of its own first, a
// second warm unit, which has seen the same pairs in another order, and
// a cold unit. The units are rotated so the one at index lead comes
// first. A simulated copy of each runs the same columns through its own
// ApplyColumn. mirrorLockstep fails at the first column after which a
// grouped unit's entries or counters differ from its copy's, and
// returns how many columns the later units mirrored.
func mirrorLockstep(t *testing.T, op isa.Op, cfg Config, policy TrivialPolicy, lead int, seed int64, columns int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// A small operand universe refills every set within a few columns,
	// so the tables converge.
	pool := operandPool(rng, op, 8+rng.Intn(24))
	draw := func() (uint64, uint64) {
		a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
		if op.Unary() {
			b = 0
		}
		return a, b
	}
	newUnit := func() *Unit { return NewUnit(New(op, cfg), policy, nil) }
	units := []*Unit{newUnit(), newUnit(), newUnit()}
	sims := []*Unit{newUnit(), newUnit(), newUnit()}
	// A short warm-up leaves most sets holding the same pairs in both
	// warm units, in different recency orders.
	warmup := make([][2]uint64, rng.Intn(max(cfg.Entries, 4)))
	for i := range warmup {
		warmup[i][0], warmup[i][1] = draw()
	}
	for _, p := range warmup {
		units[0].Apply(p[0], p[1])
		sims[0].Apply(p[0], p[1])
	}
	rng.Shuffle(len(warmup), func(i, j int) { warmup[i], warmup[j] = warmup[j], warmup[i] })
	for _, p := range warmup {
		units[1].Apply(p[0], p[1])
		sims[1].Apply(p[0], p[1])
	}
	lead %= len(units)
	units = append(units[lead:], units[:lead]...)
	sims = append(sims[lead:], sims[:lead]...)
	g := twinsOf(units...)
	var col Column
	mirrored := 0
	for step := 0; step < columns; step++ {
		col.Reset(op)
		for n := rng.Intn(64); n > 0; n-- {
			col.Push(draw())
		}
		g.ApplyColumn(&col)
		mirrored += g.Mirroring()
		for i, u := range units {
			s := sims[i]
			s.ApplyColumn(&col)
			if u.TotalOps() != s.TotalOps() || u.TrivialOps() != s.TrivialOps() || u.Table().Stats() != s.Table().Stats() {
				t.Fatalf("column %d unit %d: ops %d/%d stats %+v, simulated %d/%d %+v", step, i,
					u.TotalOps(), u.TrivialOps(), u.Table().Stats(), s.TotalOps(), s.TrivialOps(), s.Table().Stats())
			}
			if !sameState(u.Table(), s.Table()) {
				t.Fatalf("column %d unit %d: entries differ from the simulated unit's", step, i)
			}
		}
	}
	return mirrored
}

// TestMirrorMatchesSimulated runs every twin geometry, class, policy
// and tagging scheme, with each of the three units first, and requires
// the later unit to have mirrored in most full-value cases, so the
// equality is not met by simulating every column. Twins of the
// unbounded table never mirror, and still match.
func TestMirrorMatchesSimulated(t *testing.T) {
	seed := int64(1)
	var cases, converged int
	for _, cfg := range append(mirrorGeometries, Config{}) {
		for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
			for _, policy := range []TrivialPolicy{CacheAll, NonTrivialOnly, Integrated} {
				for _, mant := range []bool{false, true} {
					for lead := range 3 {
						c := cfg
						c.MantissaOnly = mant
						seed++
						name := fmt.Sprintf("%dx%d/%v/%v/mant=%v/lead=%d", c.Entries, c.Ways, op, policy, mant, lead)
						t.Run(name, func(t *testing.T) {
							m := mirrorLockstep(t, op, c, policy, lead, seed, 300)
							if c.Entries == 0 && m != 0 {
								t.Fatalf("unbounded twins mirrored %d columns", m)
							}
							if c.Entries != 0 && (!mant || op == isa.OpIMul) {
								cases++
								if m > 0 {
									converged++
								}
							}
						})
					}
				}
			}
		}
	}
	if converged*10 < cases*9 {
		t.Errorf("twins converged in %d of %d full-value cases, want at least 90%%", converged, cases)
	}
}

// TestTwinsNeedTagOrder: two tables holding the same pairs in one set,
// in opposite recency orders, are not twins. A miss evicts a different
// pair from each, so a column that misses and then presents the pair
// the first table evicted hits only in the second.
func TestTwinsNeedTagOrder(t *testing.T) {
	// Integer tags index by their low bits: every pair here falls in
	// set 0 of the 32/4 table.
	pairs := [][2]uint64{{8, 16}, {8, 24}, {8, 32}, {8, 40}}
	newUnit := func() *Unit { return NewUnit(New(isa.OpIMul, Paper32x4()), NonTrivialOnly, nil) }
	first, later, sim := newUnit(), newUnit(), newUnit()
	for i := range pairs {
		first.Apply(pairs[i][0], pairs[i][1])
		p := pairs[len(pairs)-1-i]
		later.Apply(p[0], p[1])
		sim.Apply(p[0], p[1])
	}
	g := twinsOf(first, later)
	var col Column
	col.Reset(isa.OpIMul)
	col.Push(8, 48)                    // a miss: evicts {8, 16} from first, {8, 40} from later
	col.Push(pairs[0][0], pairs[0][1]) // misses in first, hits in later
	g.ApplyColumn(&col)
	sim.ApplyColumn(&col)
	if g.Mirroring() != 0 {
		t.Error("tables holding one set in opposite orders were taken for twins")
	}
	if later.Table().Stats() != sim.Table().Stats() || !sameState(later.Table(), sim.Table()) {
		t.Errorf("later unit stats %+v, simulated %+v", later.Table().Stats(), sim.Table().Stats())
	}
	if h := sim.Table().Stats().Hits; h != 1 {
		t.Fatalf("simulated unit hit %d times, want 1: the pairs do not share a set", h)
	}
}

// TestTwinsRejectMismatch: units of another class, configuration or
// policy cannot be grouped.
func TestTwinsRejectMismatch(t *testing.T) {
	base := NewUnit(New(isa.OpFMul, Paper32x4()), NonTrivialOnly, nil)
	mant := Paper32x4()
	mant.MantissaOnly = true
	for name, u := range map[string]*Unit{
		"class":  NewUnit(New(isa.OpFDiv, Paper32x4()), NonTrivialOnly, nil),
		"config": NewUnit(New(isa.OpFMul, mant), NonTrivialOnly, nil),
		"policy": NewUnit(New(isa.OpFMul, Paper32x4()), CacheAll, nil),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("twins of another %s were grouped", name)
				}
			}()
			twinsOf(base, u)
		}()
	}
}

// FuzzMirrorMatchesSimulated explores streams beyond the fixed seeds:
// the input picks the geometry, class, policy, tagging scheme, which
// unit leads and the stream seed.
func FuzzMirrorMatchesSimulated(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), int64(7))
	f.Add(uint8(1), uint8(2), uint8(6), int64(11))
	f.Add(uint8(3), uint8(0), uint8(13), int64(-3))
	ops := []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt}
	f.Fuzz(func(t *testing.T, geo, op, flags uint8, seed int64) {
		c := mirrorGeometries[int(geo)%len(mirrorGeometries)]
		c.MantissaOnly = flags&1 != 0
		policy := TrivialPolicy(flags >> 1 % 3)
		mirrorLockstep(t, ops[int(op)%len(ops)], c, policy, int(flags>>4%3), seed, 200)
	})
}
