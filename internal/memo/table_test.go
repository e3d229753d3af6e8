package memo

import (
	"math"
	"testing"
	"testing/quick"

	"memotable/internal/isa"
)

func fbits(x float64) uint64 { return math.Float64bits(x) }

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{}, {Entries: 32, Ways: 4}, {Entries: 8, Ways: 1},
		{Entries: 16, Ways: 2}, {Entries: 8192, Ways: 4},
		{Entries: 64},         // fully associative
		{Entries: 4, Ways: 8}, // ways > entries: fully associative
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Entries: -1}, {Entries: 3}, {Entries: 32, Ways: -2},
		{Entries: 32, Ways: 3}, {Entries: 48, Ways: 4},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestConfigSets(t *testing.T) {
	cases := []struct {
		cfg  Config
		sets int
		bits uint
	}{
		{Config{Entries: 32, Ways: 4}, 8, 3},
		{Config{Entries: 32, Ways: 1}, 32, 5},
		{Config{Entries: 32}, 1, 0},
		{Config{Entries: 8192, Ways: 4}, 2048, 11},
		{Config{}, 0, 0},
	}
	for _, c := range cases {
		sets, bits := c.cfg.sets()
		if sets != c.sets || bits != c.bits {
			t.Errorf("sets(%+v) = %d,%d want %d,%d", c.cfg, sets, bits, c.sets, c.bits)
		}
	}
}

func TestNewPanicsOnBadInput(t *testing.T) {
	mustPanic(t, func() { New(isa.OpLoad, Paper32x4()) })
	mustPanic(t, func() { New(isa.OpFMul, Config{Entries: 3}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestBasicHitMiss(t *testing.T) {
	tab := New(isa.OpFDiv, Paper32x4())
	a, b := fbits(7.5), fbits(2.5)
	if _, hit := tab.Lookup(a, b); hit {
		t.Fatal("hit on empty table")
	}
	tab.Insert(a, b, fbits(3.0))
	res, hit := tab.Lookup(a, b)
	if !hit || res != fbits(3.0) {
		t.Fatalf("lookup = %v,%v want hit 3.0", math.Float64frombits(res), hit)
	}
	st := tab.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessComputesOnceOnRepeat(t *testing.T) {
	tab := New(isa.OpFMul, Paper32x4())
	calls := 0
	compute := func() uint64 { calls++; return fbits(6.0) }
	for i := 0; i < 5; i++ {
		res, hit := tab.Access(fbits(2.0), fbits(3.0), compute)
		if res != fbits(6.0) {
			t.Fatalf("wrong result on iteration %d", i)
		}
		if (i == 0) == hit {
			t.Fatalf("iteration %d: hit=%v", i, hit)
		}
	}
	if calls != 1 {
		t.Fatalf("compute called %d times, want 1", calls)
	}
}

func TestCommutativeLookup(t *testing.T) {
	for _, op := range []isa.Op{isa.OpFMul, isa.OpIMul} {
		tab := New(op, Paper32x4())
		a, b := uint64(fbits(2.5)), uint64(fbits(5.5))
		if op == isa.OpIMul {
			a, b = 12345, 678
		}
		tab.Insert(a, b, 99)
		if _, hit := tab.Lookup(b, a); !hit {
			t.Errorf("%v: reversed operands missed", op)
		}
	}
	// Division is not commutative: reversed operands must miss.
	tab := New(isa.OpFDiv, Paper32x4())
	tab.Insert(fbits(6.0), fbits(3.0), fbits(2.0))
	if _, hit := tab.Lookup(fbits(3.0), fbits(6.0)); hit {
		t.Error("fdiv: reversed operands hit")
	}
}

func TestNoCommutativeLookupAblation(t *testing.T) {
	cfg := Paper32x4()
	cfg.NoCommutativeLookup = true
	tab := New(isa.OpFMul, cfg)
	tab.Insert(fbits(2.5), fbits(5.5), fbits(13.75))
	if _, hit := tab.Lookup(fbits(5.5), fbits(2.5)); hit {
		t.Error("reversed operands hit despite disabled commutative lookup")
	}
	if _, hit := tab.Lookup(fbits(2.5), fbits(5.5)); !hit {
		t.Error("original order missed")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// Direct construction of conflicting integer keys: with 8 sets the
	// index is (a^b)&7; fix b=0 and use multiples of 8 to land in set 0.
	tab := New(isa.OpIMul, Config{Entries: 32, Ways: 4})
	keys := []uint64{8, 16, 24, 32, 40} // five conflicting pairs, 4 ways
	for _, k := range keys {
		tab.Insert(k, 8, k+1)
	}
	// The first-inserted (LRU) key must be gone; the rest present.
	if _, hit := tab.Lookup(8, 8); hit {
		t.Error("LRU entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, hit := tab.Lookup(k, 8); !hit {
			t.Errorf("key %d evicted unexpectedly", k)
		}
	}
	if tab.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", tab.Stats().Evictions)
	}
}

func TestLRURecencyUpdateOnHit(t *testing.T) {
	tab := New(isa.OpIMul, Config{Entries: 32, Ways: 4})
	for _, k := range []uint64{8, 16, 24, 32} {
		tab.Insert(k, 8, k)
	}
	// Touch the oldest entry, then insert a conflict: the second-oldest
	// must be the victim.
	tab.Lookup(8, 8)
	tab.Insert(40, 8, 40)
	if _, hit := tab.Lookup(8, 8); !hit {
		t.Error("recently used entry was evicted")
	}
	if _, hit := tab.Lookup(16, 8); hit {
		t.Error("LRU victim survived")
	}
}

func TestInfiniteTableNeverEvicts(t *testing.T) {
	tab := New(isa.OpFMul, Infinite())
	const n = 10000
	for i := 0; i < n; i++ {
		tab.Insert(fbits(float64(i)+0.5), fbits(2.0), fbits((float64(i)+0.5)*2))
	}
	for i := 0; i < n; i++ {
		if _, hit := tab.Lookup(fbits(float64(i)+0.5), fbits(2.0)); !hit {
			t.Fatalf("entry %d lost from infinite table", i)
		}
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d, want %d", tab.Len(), n)
	}
	if tab.Stats().Evictions != 0 {
		t.Fatal("infinite table evicted")
	}
}

func TestResetClears(t *testing.T) {
	for _, cfg := range []Config{Paper32x4(), Infinite()} {
		tab := New(isa.OpFDiv, cfg)
		tab.Insert(fbits(6.0), fbits(3.0), fbits(2.0))
		tab.Reset()
		if tab.Len() != 0 {
			t.Errorf("%+v: Len after Reset = %d", cfg, tab.Len())
		}
		if _, hit := tab.Lookup(fbits(6.0), fbits(3.0)); hit {
			t.Errorf("%+v: hit after Reset", cfg)
		}
		st := tab.Stats()
		if st.Hits != 0 || st.Lookups != 1 {
			t.Errorf("%+v: stats not reset: %+v", cfg, st)
		}
	}
}

// TestDuplicateInsertShadowsOlderEntry: a second Insert of a tag already
// in its set, after unrelated inserts pushed the first copy deeper, must
// win the next lookup — the probe returns the newest copy, never the
// stale one behind it.
func TestDuplicateInsertShadowsOlderEntry(t *testing.T) {
	// Entries == Ways makes a single set, so every key shares it.
	tb := New(isa.OpIMul, Config{Entries: 4, Ways: 4})
	const k = 7
	tb.Insert(k, k, 100)
	if v, hit := tb.Lookup(k, k); !hit || v != 100 {
		t.Fatalf("Lookup(k) = %d, %v; want 100, true", v, hit)
	}
	// Two unrelated inserts shift k's entry to way 2.
	tb.Insert(11, 11, 1)
	tb.Insert(13, 13, 2)
	// Shadow it: a fresh value for the same tag lands at way 0.
	tb.Insert(k, k, 200)
	if v, hit := tb.Lookup(k, k); !hit || v != 200 {
		t.Fatalf("Lookup(k) after shadowing = %d, %v; want 200, true", v, hit)
	}
}

func TestIntegerIndexUsesLSBXor(t *testing.T) {
	tab := New(isa.OpIMul, Config{Entries: 32, Ways: 4})
	// (a^b)&7 identical for all of these: they must contend for one set.
	pairs := [][2]uint64{{1, 1}, {9, 9}, {17, 17}, {25, 25}, {33, 33}}
	for _, p := range pairs {
		tab.Insert(p[0], p[1], p[0]*p[1])
	}
	if ev := tab.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1 (all pairs map to one set)", ev)
	}
}

func TestFPIndexUsesMantissaMSBs(t *testing.T) {
	tab := New(isa.OpFMul, Config{Entries: 32, Ways: 4})
	// Values with identical top mantissa bits but different exponents map
	// to the same set; five of them against a fixed operand overflow a
	// 4-way set.
	for i := 0; i < 5; i++ {
		a := math.Ldexp(1.0, i) // mantissa 0 at every exponent
		tab.Insert(fbits(a), fbits(1.5), fbits(a*1.5))
	}
	if ev := tab.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestStatsAddAndRatios(t *testing.T) {
	a := Stats{Lookups: 10, Hits: 4, Misses: 6, Trivial: 2, Inserts: 6}
	b := Stats{Lookups: 5, Hits: 1, Misses: 4, Bypassed: 3}
	a.Add(b)
	if a.Lookups != 15 || a.Hits != 5 || a.Misses != 10 || a.Bypassed != 3 {
		t.Fatalf("Add result %+v", a)
	}
	if got := a.HitRatio(); math.Abs(got-5.0/15) > 1e-15 {
		t.Errorf("HitRatio = %g", got)
	}
	if got := a.IntegratedHitRatio(); math.Abs(got-7.0/17) > 1e-15 {
		t.Errorf("IntegratedHitRatio = %g", got)
	}
	if (Stats{}).HitRatio() != 0 || (Stats{}).IntegratedHitRatio() != 0 {
		t.Error("empty stats ratios not zero")
	}
	if a.Ops() != 15+2+3 {
		t.Errorf("Ops = %d", a.Ops())
	}
}

func TestMemoizedResultsBitExact(t *testing.T) {
	// Property: for any operand bit patterns, routing through a memo
	// table yields bit-identical results to direct computation.
	for _, op := range []isa.Op{isa.OpFMul, isa.OpFDiv, isa.OpFSqrt, isa.OpIMul} {
		tab := New(op, Config{Entries: 16, Ways: 2})
		u := NewUnit(tab, NonTrivialOnly, nil)
		ref := hostCompute(op)
		f := func(a, b uint64) bool {
			if op.Unary() {
				b = 0
			}
			got, _ := u.Apply(a, b)
			want := ref(a, b)
			// NaN payload-insensitive compare.
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

func isNaNBits(b uint64) bool { return math.IsNaN(math.Float64frombits(b)) }
