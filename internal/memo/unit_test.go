package memo

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"memotable/internal/isa"
)

func TestUnitTrivialPolicies(t *testing.T) {
	// Sequence: 3*1 (trivial), 3*4 (non-trivial), 3*4 again, 5*0 (trivial).
	type step struct {
		a, b float64
		want Outcome
	}
	cases := []struct {
		policy TrivialPolicy
		steps  []step
	}{
		{NonTrivialOnly, []step{
			{3, 1, Trivial}, {3, 4, Miss}, {3, 4, Hit}, {5, 0, Trivial},
		}},
		{Integrated, []step{
			{3, 1, Trivial}, {3, 4, Miss}, {3, 4, Hit}, {5, 0, Trivial},
		}},
		{CacheAll, []step{
			{3, 1, Miss}, {3, 4, Miss}, {3, 4, Hit}, {3, 1, Hit}, {5, 0, Miss},
		}},
	}
	for _, c := range cases {
		u := NewUnit(New(isa.OpFMul, Paper32x4()), c.policy, nil)
		for i, s := range c.steps {
			res, out := u.FMul(s.a, s.b)
			if out != s.want {
				t.Errorf("%v step %d: outcome %v, want %v", c.policy, i, out, s.want)
			}
			if res != s.a*s.b {
				t.Errorf("%v step %d: result %g, want %g", c.policy, i, res, s.a*s.b)
			}
		}
	}
}

func TestUnitPolicyCounters(t *testing.T) {
	u := NewUnit(New(isa.OpFDiv, Paper32x4()), NonTrivialOnly, nil)
	u.FDiv(6, 1) // trivial
	u.FDiv(6, 2) // miss
	u.FDiv(6, 2) // hit
	u.FDiv(0, 5) // trivial
	if u.TotalOps() != 4 || u.TrivialOps() != 2 {
		t.Fatalf("totals = %d/%d, want 4/2", u.TotalOps(), u.TrivialOps())
	}
	st := u.Table().Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Trivial != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("non-trivial hit ratio = %g, want 0.5", st.HitRatio())
	}
}

func TestUnitIntegratedRatioCountsTrivialAsHits(t *testing.T) {
	u := NewUnit(New(isa.OpFMul, Paper32x4()), Integrated, nil)
	u.FMul(2, 1) // trivial -> counted as hit in integrated ratio
	u.FMul(2, 3) // miss
	u.FMul(2, 3) // hit
	st := u.Table().Stats()
	if got := st.IntegratedHitRatio(); math.Abs(got-2.0/3) > 1e-15 {
		t.Fatalf("integrated ratio = %g, want 2/3", got)
	}
}

// TestIntegratedAndNonTrivialTablesAgree: under both policies a trivial
// operation only bumps Stats.Trivial and never reaches the table, so one
// stream leaves identical table statistics and outcomes behind. Table 9
// relies on this to read its integrated column from the non-trivial-only
// tables.
func TestIntegratedAndNonTrivialTablesAgree(t *testing.T) {
	for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
		rng := rand.New(rand.NewSource(int64(op)))
		pool := operandPool(rng, op, 24)
		non := NewUnit(New(op, Paper32x4()), NonTrivialOnly, nil)
		intg := NewUnit(New(op, Paper32x4()), Integrated, nil)
		for i := 0; i < 20000; i++ {
			a, b := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			if op.Unary() {
				b = 0
			}
			r1, o1 := non.Apply(a, b)
			r2, o2 := intg.Apply(a, b)
			if r1 != r2 || o1 != o2 {
				t.Fatalf("%v step %d: non %#x/%v, intgr %#x/%v", op, i, r1, o1, r2, o2)
			}
		}
		sn, si := non.Table().Stats(), intg.Table().Stats()
		if sn != si {
			t.Fatalf("%v: non stats %+v, intgr stats %+v", op, sn, si)
		}
		if sn.Trivial == 0 || sn.Hits == 0 || sn.Misses == 0 {
			t.Fatalf("%v: stream exercised too little: %+v", op, sn)
		}
	}
}

func TestUnitWrongOpPanics(t *testing.T) {
	u := NewUnit(New(isa.OpFMul, Paper32x4()), NonTrivialOnly, nil)
	mustPanic(t, func() { u.FDiv(1, 2) })
	mustPanic(t, func() { u.FSqrt(2) })
	mustPanic(t, func() { u.IMul(1, 2) })
}

func TestUnitSqrt(t *testing.T) {
	u := NewUnit(New(isa.OpFSqrt, Paper32x4()), NonTrivialOnly, nil)
	if res, out := u.FSqrt(9); res != 3 || out != Miss {
		t.Fatalf("first sqrt: %g %v", res, out)
	}
	if res, out := u.FSqrt(9); res != 3 || out != Hit {
		t.Fatalf("second sqrt: %g %v", res, out)
	}
	if _, out := u.FSqrt(1); out != Trivial {
		t.Fatalf("sqrt(1) outcome %v", out)
	}
}

func TestUnitIMul(t *testing.T) {
	u := NewUnit(New(isa.OpIMul, Paper32x4()), NonTrivialOnly, nil)
	if res, out := u.IMul(-7, 9); res != -63 || out != Miss {
		t.Fatalf("imul: %d %v", res, out)
	}
	if res, out := u.IMul(9, -7); res != -63 || out != Hit {
		t.Fatalf("commutative imul: %d %v", res, out)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{Miss, Hit, Trivial, Bypass} {
		if o.String() == "" || o.String() == "outcome(?)" {
			t.Errorf("bad String for %d", int(o))
		}
	}
	for _, p := range []TrivialPolicy{CacheAll, NonTrivialOnly, Integrated} {
		if p.String() == "" {
			t.Errorf("bad String for policy %d", int(p))
		}
	}
}

// --- Mantissa-only mode ---------------------------------------------------

func TestMantissaOnlyHitsAcrossExponents(t *testing.T) {
	cfg := Paper32x4()
	cfg.MantissaOnly = true
	u := NewUnit(New(isa.OpFMul, cfg), NonTrivialOnly, nil)
	if _, out := u.FMul(1.5, 2.5); out != Miss {
		t.Fatal("first op should miss")
	}
	// Same mantissas, different exponents: full-value tags would miss,
	// mantissa tags hit and the exponent is reconstructed.
	res, out := u.FMul(3.0, 5.0)
	if out != Hit {
		t.Fatalf("scaled operands: outcome %v, want Hit", out)
	}
	if res != 15.0 {
		t.Fatalf("reconstructed result %g, want 15", res)
	}
	// Sign reconstruction.
	res, out = u.FMul(-3.0, 5.0)
	if out != Hit || res != -15.0 {
		t.Fatalf("signed reconstruction: %g %v", res, out)
	}
}

func TestMantissaOnlyDiv(t *testing.T) {
	cfg := Paper32x4()
	cfg.MantissaOnly = true
	u := NewUnit(New(isa.OpFDiv, cfg), NonTrivialOnly, nil)
	u.FDiv(7.0, 2.0)
	res, out := u.FDiv(14.0, 4.0)
	if out != Hit || res != 3.5 {
		t.Fatalf("div reconstruction: %g %v", res, out)
	}
	res, out = u.FDiv(-7.0, 8.0)
	if out != Hit || res != -0.875 {
		t.Fatalf("div sign/exponent reconstruction: %g %v", res, out)
	}
}

func TestMantissaOnlySqrtParity(t *testing.T) {
	cfg := Paper32x4()
	cfg.MantissaOnly = true
	u := NewUnit(New(isa.OpFSqrt, cfg), NonTrivialOnly, nil)
	u.FSqrt(4.0) // mantissa 0, even exponent
	// 2.0 has mantissa 0 but odd exponent relative to 4.0: the parity bit
	// must keep these distinct (sqrt(2) has a different mantissa).
	if _, out := u.FSqrt(2.0); out == Hit {
		t.Fatal("sqrt parity collision: 2.0 hit entry for 4.0")
	}
	// 16.0: mantissa 0, same parity as 4.0 -> reconstructible hit.
	res, out := u.FSqrt(16.0)
	if out != Hit || res != 4.0 {
		t.Fatalf("sqrt reconstruction: %g %v", res, out)
	}
}

func TestMantissaOnlySpecialsBypass(t *testing.T) {
	cfg := Paper32x4()
	cfg.MantissaOnly = true
	u := NewUnit(New(isa.OpFMul, cfg), NonTrivialOnly, nil)
	sub := math.Float64frombits(1)
	res, out := u.FMul(sub, 3)
	if out != Miss {
		t.Fatalf("subnormal operand outcome %v", out)
	}
	if res != sub*3 {
		t.Fatalf("subnormal result %g", res)
	}
	if u.Table().Stats().Bypassed != 1 {
		t.Fatalf("bypassed = %d, want 1", u.Table().Stats().Bypassed)
	}
}

func TestMantissaOnlyRejectsOutOfRangeReconstruction(t *testing.T) {
	cfg := Paper32x4()
	cfg.MantissaOnly = true
	u := NewUnit(New(isa.OpFMul, cfg), NonTrivialOnly, nil)
	u.FMul(1.5, 1.5) // inserts mantissa of 2.25
	// Same mantissas at huge exponents: the true product overflows, so
	// the table must refuse the hit rather than fabricate a normal value.
	big := math.Ldexp(1.5, 1000)
	res, out := u.FMul(big, big)
	if out == Hit {
		t.Fatal("out-of-range reconstruction accepted")
	}
	if !math.IsInf(res, 1) {
		t.Fatalf("result %g, want +Inf", res)
	}
}

func TestMantissaOnlyBitExactProperty(t *testing.T) {
	for _, op := range []isa.Op{isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
		cfg := Config{Entries: 16, Ways: 2, MantissaOnly: true}
		u := NewUnit(New(op, cfg), NonTrivialOnly, nil)
		ref := hostCompute(op)
		f := func(a, b uint64) bool {
			if op.Unary() {
				b = 0
			}
			got, _ := u.Apply(a, b)
			want := ref(a, b)
			if isNaNBits(got) && isNaNBits(want) {
				return true
			}
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
}

func TestSharedTableConcurrentAccess(t *testing.T) {
	sh := NewShared(New(isa.OpFDiv, Paper32x4()), 2)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				a := fbits(float64(i%16) + 2.5)
				b := fbits(2.0)
				sh.Access(a, b, func() uint64 {
					return fbits((float64(i%16) + 2.5) / 2.0)
				})
			}
		}()
	}
	wg.Wait()
	st := sh.Stats()
	if st.Lookups != 4000 {
		t.Fatalf("lookups = %d, want 4000", st.Lookups)
	}
	if st.Hits == 0 {
		t.Fatal("shared table saw no cross-unit reuse")
	}
	if sh.Ports() != 2 {
		t.Fatalf("ports = %d", sh.Ports())
	}
	mustPanic(t, func() { NewShared(nil, 1) })
	mustPanic(t, func() { NewShared(New(isa.OpFMul, Paper32x4()), 0) })
}
