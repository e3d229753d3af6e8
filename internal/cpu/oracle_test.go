package cpu

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"memotable/internal/cache"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// oracle is the naive cycle model: every event is charged as it
// arrives, on one processor, driving its own units and its own cache
// hierarchy. Model.On must price a tally to exactly what it accumulates.
type oracle struct {
	proc   isa.Processor
	l1, l2 *cache.Cache
	units  [isa.NumOps]*memo.Unit

	cycles, saved uint64
	class         [isa.NumOps]uint64
}

func newOracle(proc isa.Processor, units ...*memo.Unit) *oracle {
	o := &oracle{proc: proc, l1: cache.New(DefaultL1), l2: cache.New(DefaultL2)}
	for _, u := range units {
		o.units[u.Table().Op()] = u
	}
	return o
}

func (o *oracle) Emit(ev trace.Event) {
	var c int
	switch ev.Op {
	case isa.OpLoad, isa.OpStore:
		switch {
		case o.l1.Access(ev.A):
			c = o.proc.L1Hit
		case o.l2.Access(ev.A):
			c = o.proc.L2Hit
		default:
			c = o.proc.Mem
		}
	default:
		full := o.proc.LatencyOf(ev.Op)
		c = full
		if u := o.units[ev.Op]; u != nil {
			_, outcome := u.Apply(ev.A, ev.B)
			switch outcome {
			case memo.Hit:
				c = 1
			case memo.Trivial:
				if u.Policy() == memo.Integrated {
					c = 1
				}
			}
			if c < full {
				o.saved += uint64(full - c)
			}
		}
	}
	o.cycles += uint64(c)
	o.class[ev.Op] += uint64(c)
}

// randomStream draws events over every class. Operands come from small
// pools holding trivial values (0, ±1), specials and subnormals (which
// bypass mantissa-only tags), and values sharing mantissas across
// exponents, so hits, trivial answers and bypasses all occur. Addresses
// come from a hot 4 KiB region (L1 hits), a 128 KiB region (L1 misses
// that L2 holds) and a 64 MiB region (memory).
func randomStream(r *rand.Rand, n int) []trace.Event {
	floats := []float64{0, 1, -1, 2, 0.5, 3, 1.5, 6, 0.375, 7, -7, 10,
		math.Inf(1), math.NaN(), 5e-324, math.MaxFloat64}
	ints := []int64{0, 1, -1, 2, 3, 5, 7, -9, 1 << 20, 12345}
	f := func() uint64 { return math.Float64bits(floats[r.IntN(len(floats))]) }
	evs := make([]trace.Event, n)
	for i := range evs {
		op := isa.Op(r.IntN(int(isa.NumOps)))
		ev := trace.Event{Op: op}
		switch op {
		case isa.OpIMul:
			ev.A, ev.B = uint64(ints[r.IntN(len(ints))]), uint64(ints[r.IntN(len(ints))])
		case isa.OpFMul, isa.OpFDiv:
			ev.A, ev.B = f(), f()
		case isa.OpFSqrt:
			ev.A = f()
		case isa.OpLoad, isa.OpStore:
			region := []uint64{4 << 10, 128 << 10, 64 << 20}[r.IntN(3)]
			ev.A = r.Uint64N(region)
		}
		evs[i] = ev
	}
	return evs
}

// TestOnMatchesPerEventOracle: pricing a tally in closed form equals
// charging every event on arrival, exactly, over random streams — for
// every trivial policy, full-value and mantissa-only tags, the study
// machines and every Table 1 processor, with any subset of the four
// memoizable classes enhanced.
func TestOnMatchesPerEventOracle(t *testing.T) {
	mant := memo.Paper32x4()
	mant.MantissaOnly = true
	cfgs := []memo.Config{memo.Paper32x4(), mant, {Entries: 8, Ways: 1}}
	procs := append([]isa.Processor{isa.FastFP(), isa.SlowFP()}, isa.Table1Processors()...)
	policies := []memo.TrivialPolicy{memo.CacheAll, memo.NonTrivialOnly, memo.Integrated}
	memoOps := []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt}

	r := rand.New(rand.NewPCG(1, 2))
	var levels [numLevels]bool
	var outcomes memo.Stats // the streams must reach every outcome
	for _, cfg := range cfgs {
		for _, policy := range policies {
			evs := randomStream(r, 4000)
			// Every subset of the memoizable classes, baseline included.
			for subset := 0; subset < 1<<len(memoOps); subset++ {
				newUnits := func() []*memo.Unit {
					var us []*memo.Unit
					for i, op := range memoOps {
						if subset&(1<<i) != 0 {
							us = append(us, memo.NewUnit(memo.New(op, cfg), policy, nil))
						}
					}
					return us
				}
				units := newUnits()
				m := New()
				feed(m, units, evs...)
				for _, u := range units {
					outcomes.Add(u.Table().Stats())
				}
				for _, lv := range m.served {
					for l, n := range lv {
						levels[l] = levels[l] || n > 0
					}
				}
				for _, proc := range procs {
					o := newOracle(proc, newUnits()...)
					for _, ev := range evs {
						o.Emit(ev)
					}
					name := fmt.Sprintf("%+v/%v/%s/classes %04b", cfg, policy, proc.Name, subset)
					got := m.On(proc, units...)
					if got.Total != o.cycles || got.Saved != o.saved || got.Class != o.class {
						t.Fatalf("%s: On = total %d saved %d class %v; oracle total %d saved %d class %v",
							name, got.Total, got.Saved, got.Class, o.cycles, o.saved, o.class)
					}
				}
			}
		}
	}
	if outcomes.Hits == 0 || outcomes.Trivial == 0 || outcomes.Bypassed == 0 {
		t.Errorf("streams missed an outcome: %+v", outcomes)
	}
	for l, seen := range levels {
		if !seen {
			t.Errorf("no memory access was served at hierarchy level %d", l)
		}
	}
}
