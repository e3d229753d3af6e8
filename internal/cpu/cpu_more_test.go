package cpu

import (
	"math"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

func TestStoresUseTheHierarchy(t *testing.T) {
	proc := isa.FastFP()
	m := New()
	feed(m, nil,
		trace.Event{Op: isa.OpStore, A: 0x9000}, // cold store: memory
		trace.Event{Op: isa.OpStore, A: 0x9000}, // L1 hit
		trace.Event{Op: isa.OpLoad, A: 0x9008})  // same line: hit
	if c := m.On(proc); c.Total != 30+1+1 {
		t.Fatalf("cycles = %d, want 32", c.Total)
	}
	if m.ClassCount(isa.OpStore) != 2 || m.ClassCount(isa.OpLoad) != 1 {
		t.Fatal("class counts wrong")
	}
}

func TestMultipleUnitsIndependentStats(t *testing.T) {
	proc := isa.FastFP()
	um := unit(isa.OpFMul, memo.NonTrivialOnly)
	ud := unit(isa.OpFDiv, memo.NonTrivialOnly)
	ev := func(op isa.Op, a, b float64) trace.Event {
		return trace.Event{Op: op, A: math.Float64bits(a), B: math.Float64bits(b)}
	}
	m := New()
	feed(m, []*memo.Unit{um, ud},
		ev(isa.OpFMul, 2, 3),
		ev(isa.OpFMul, 2, 3),
		ev(isa.OpFDiv, 2, 3))
	if um.Table().Stats().Hits != 1 || ud.Table().Stats().Hits != 0 {
		t.Fatal("unit stats crossed")
	}
	// fmul: 3 + 1, fdiv: 13.
	c := m.On(proc, um, ud)
	if c.Total != 3+1+13 {
		t.Fatalf("cycles = %d", c.Total)
	}
	if c.Saved != 2 {
		t.Fatalf("saved = %d", c.Saved)
	}
}

func TestSqrtUnitMemoized(t *testing.T) {
	proc := isa.FastFP() // fsqrt 17
	u := unit(isa.OpFSqrt, memo.NonTrivialOnly)
	ev := trace.Event{Op: isa.OpFSqrt, A: math.Float64bits(9.0)}
	m := New()
	feed(m, []*memo.Unit{u}, ev, ev)
	if c := m.On(proc, u); c.Total != 17+1 {
		t.Fatalf("cycles = %d, want 18", c.Total)
	}
}

func TestFractionSumsToOne(t *testing.T) {
	m := New()
	ops := []isa.Op{isa.OpIAlu, isa.OpFAdd, isa.OpBranch, isa.OpNop,
		isa.OpFMul, isa.OpFDiv, isa.OpIMul, isa.OpFSqrt}
	for i, op := range ops {
		m.Emit(trace.Event{Op: op, A: math.Float64bits(float64(i) + 1.5),
			B: math.Float64bits(2.5)})
	}
	m.Emit(trace.Event{Op: isa.OpLoad, A: 0x100})
	m.Emit(trace.Event{Op: isa.OpStore, A: 0x200})
	c := m.On(isa.SlowFP())
	all := append(ops, isa.OpLoad, isa.OpStore)
	if got := c.Fraction(all...); math.Abs(got-1) > 1e-12 {
		t.Fatalf("fractions sum to %g", got)
	}
	if c.Fraction() != 0 {
		t.Fatal("empty fraction not zero")
	}
}

func TestEmptyModelFractionZero(t *testing.T) {
	c := New().On(isa.FastFP())
	if c.Fraction(isa.OpFDiv) != 0 {
		t.Fatal("fraction on empty model")
	}
	if c.Total != 0 || c.Saved != 0 {
		t.Fatal("fresh model not zeroed")
	}
}
