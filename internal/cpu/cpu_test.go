package cpu

import (
	"math"
	"strings"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

func fdivEvent(a, b float64) trace.Event {
	return trace.Event{Op: isa.OpFDiv, A: math.Float64bits(a), B: math.Float64bits(b)}
}

// unit builds a fresh 32/4 unit for op under policy.
func unit(op isa.Op, policy memo.TrivialPolicy) *memo.Unit {
	return memo.NewUnit(memo.New(op, memo.Paper32x4()), policy, nil)
}

// feed emits events into the model and presents each one of a unit's
// class to that unit, as a TableSet riding the same stream does.
func feed(m *Model, units []*memo.Unit, evs ...trace.Event) {
	for _, ev := range evs {
		m.Emit(ev)
		for _, u := range units {
			if u != nil && u.Table().Op() == ev.Op {
				u.Apply(ev.A, ev.B)
			}
		}
	}
}

func TestBaselineChargesFullLatencies(t *testing.T) {
	proc := isa.FastFP() // fdiv 13, fmul 3
	m := New()
	feed(m, nil,
		fdivEvent(7, 3),
		trace.Event{Op: isa.OpFMul, A: math.Float64bits(2), B: math.Float64bits(3)},
		trace.Event{Op: isa.OpIAlu})
	c := m.On(proc)
	if c.Total != 13+3+1 {
		t.Fatalf("cycles = %d, want 17", c.Total)
	}
	if c.Class[isa.OpFDiv] != 13 || m.ClassCount(isa.OpFDiv) != 1 {
		t.Fatalf("fdiv accounting wrong")
	}
	if c.Saved != 0 {
		t.Fatal("baseline saved cycles")
	}
}

func TestMemoHitTakesOneCycle(t *testing.T) {
	proc := isa.FastFP()
	u := unit(isa.OpFDiv, memo.NonTrivialOnly)
	m := New()
	feed(m, []*memo.Unit{u},
		fdivEvent(7, 3), // miss: 13 cycles
		fdivEvent(7, 3)) // hit: 1 cycle
	c := m.On(proc, u)
	if c.Total != 14 {
		t.Fatalf("cycles = %d, want 14", c.Total)
	}
	if c.Saved != 12 {
		t.Fatalf("saved = %d, want 12", c.Saved)
	}
}

func TestTrivialLatencyByPolicy(t *testing.T) {
	proc := isa.FastFP()
	// NonTrivialOnly: trivial op still occupies the divider.
	u1 := unit(isa.OpFDiv, memo.NonTrivialOnly)
	m1 := New()
	feed(m1, []*memo.Unit{u1}, fdivEvent(7, 1))
	if c := m1.On(proc, u1); c.Total != 13 {
		t.Fatalf("non-trivial-only: %d cycles, want 13", c.Total)
	}
	// Integrated: detector answers in one cycle.
	u2 := unit(isa.OpFDiv, memo.Integrated)
	m2 := New()
	feed(m2, []*memo.Unit{u2}, fdivEvent(7, 1))
	if c := m2.On(proc, u2); c.Total != 1 {
		t.Fatalf("integrated: %d cycles, want 1", c.Total)
	}
}

func TestMemoryHierarchyLatencies(t *testing.T) {
	proc := isa.FastFP() // L1 1, L2 6, Mem 30
	m := New()
	feed(m, nil,
		trace.Event{Op: isa.OpLoad, A: 0x1000}, // cold: memory
		trace.Event{Op: isa.OpLoad, A: 0x1000}) // L1 hit
	if c := m.On(proc); c.Total != 30+1 {
		t.Fatalf("cycles = %d, want 31", c.Total)
	}
	// Evict from L1 but not L2, then reload: L2 hit. L1 is 16K 2-way with
	// 32B lines: lines 16K/2=8K apart collide; three of them overflow the
	// 2 ways.
	m2 := New()
	feed(m2, nil,
		trace.Event{Op: isa.OpLoad, A: 0},
		trace.Event{Op: isa.OpLoad, A: 8 * 1024},
		trace.Event{Op: isa.OpLoad, A: 16 * 1024})
	base := m2.On(proc).Total
	feed(m2, nil, trace.Event{Op: isa.OpLoad, A: 0}) // L1 evicted, L2 has it
	if got := m2.On(proc).Total - base; got != 6 {
		t.Fatalf("L2 hit cost %d, want 6", got)
	}
	if m2.L1Stats().Accesses != 4 || m2.L2Stats().Accesses != 4 {
		t.Fatalf("cache stats: L1 %+v L2 %+v", m2.L1Stats(), m2.L2Stats())
	}
}

func TestFractionEnhanced(t *testing.T) {
	proc := isa.FastFP()
	m := New()
	for i := 0; i < 10; i++ {
		m.Emit(trace.Event{Op: isa.OpIAlu})
	}
	m.Emit(fdivEvent(7, 3)) // 13 cycles of 23 total
	c := m.On(proc)
	want := 13.0 / 23.0
	if got := c.Fraction(isa.OpFDiv); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Fraction = %g, want %g", got, want)
	}
	if got := c.Fraction(isa.OpFDiv, isa.OpIAlu); math.Abs(got-1) > 1e-12 {
		t.Fatalf("full fraction = %g", got)
	}
}

func TestSpeedupEndToEnd(t *testing.T) {
	// A loop reusing 4 divisor pairs: the memo machine must beat baseline,
	// and the ratio must equal baseline/enhanced cycles. Both machines
	// price the one tally.
	proc := isa.SlowFP() // fdiv 39
	events := make([]trace.Event, 0, 400)
	for i := 0; i < 100; i++ {
		events = append(events, fdivEvent(float64(i%4)+2, 7))
		events = append(events, trace.Event{Op: isa.OpIAlu})
	}
	u := unit(isa.OpFDiv, memo.NonTrivialOnly)
	m := New()
	feed(m, []*memo.Unit{u}, events...)
	base, enh := m.On(proc), m.On(proc, u)
	if base.Total != 100*40 {
		t.Fatalf("baseline cycles %d", base.Total)
	}
	// 4 misses (39 each), 96 hits (1 each), 100 ialu.
	wantEnh := uint64(4*39 + 96*1 + 100)
	if enh.Total != wantEnh {
		t.Fatalf("enhanced cycles %d, want %d", enh.Total, wantEnh)
	}
	if enh.Saved != base.Total-enh.Total {
		t.Fatalf("saved %d vs delta %d", enh.Saved, base.Total-enh.Total)
	}
}

func TestModelIgnoresNilUnits(t *testing.T) {
	m := New()
	m.Emit(fdivEvent(1, 3))
	if c := m.On(isa.FastFP(), nil); c.Total != 13 {
		t.Fatalf("cycles = %d", c.Total)
	}
}

// TestOnRejectsDuplicateUnits: two units for one class, or one unit
// passed twice, cannot both be attached to the class's computation unit;
// pricing must refuse instead of silently keeping one.
func TestOnRejectsDuplicateUnits(t *testing.T) {
	a, b := unit(isa.OpFDiv, memo.NonTrivialOnly), unit(isa.OpFDiv, memo.NonTrivialOnly)
	m := New()
	feed(m, []*memo.Unit{a, b}, fdivEvent(7, 3), fdivEvent(7, 3))
	mustPanic := func(name, want string, units ...*memo.Unit) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: On did not panic", name)
			}
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q does not mention %q", name, r, want)
			}
		}()
		m.On(isa.FastFP(), units...)
	}
	mustPanic("two units for one class", "two units for class fdiv", a, b)
	mustPanic("one unit twice", "fdiv unit attached twice", a, nil, a)
}

// TestOnRejectsUnitFromAnotherStream: a unit must have seen exactly the
// tally's operations of its class, or its hits price a different stream.
func TestOnRejectsUnitFromAnotherStream(t *testing.T) {
	u := unit(isa.OpFDiv, memo.NonTrivialOnly)
	m := New()
	feed(m, []*memo.Unit{u}, fdivEvent(7, 3))
	m.Emit(fdivEvent(7, 3)) // the tally sees one division the unit does not
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("On priced a unit fed a different stream")
		}
	}()
	m.On(isa.FastFP(), u)
}
