package arith

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUnpackPackRoundTrip(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Float64frombits(bits)
		y := Pack(Unpack(x))
		return math.Float64bits(x) == math.Float64bits(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackKnownValues(t *testing.T) {
	cases := []struct {
		x    float64
		sign bool
		exp  int
		mant uint64
	}{
		{0, false, 0, 0},
		{math.Copysign(0, -1), true, 0, 0},
		{1, false, ExponentBias, 0},
		{2, false, ExponentBias + 1, 0},
		{0.5, false, ExponentBias - 1, 0},
		{-1.5, true, ExponentBias, 1 << (MantissaBits - 1)},
		{math.Inf(1), false, ExponentMax, 0},
		{math.Inf(-1), true, ExponentMax, 0},
	}
	for _, c := range cases {
		f := Unpack(c.x)
		if f.Sign != c.sign || f.Exponent != c.exp || f.Mantissa != c.mant {
			t.Errorf("Unpack(%v) = %+v, want sign=%v exp=%d mant=%#x",
				c.x, f, c.sign, c.exp, c.mant)
		}
	}
}

func TestSignificandReconstructs(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		sig, exp := Significand(x)
		if x == 0 {
			return sig == 0
		}
		got := math.Ldexp(float64(sig), exp-MantissaBits)
		return got == math.Abs(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormSignificandRange(t *testing.T) {
	f := func(bits uint64) bool {
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, 0) || x == 0 {
			return true
		}
		sig, _ := normSignificand(x)
		return sig >= HiddenBit && sig < 2*HiddenBit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormSignificandSubnormal(t *testing.T) {
	x := math.Float64frombits(1) // smallest positive subnormal = 2^-1074
	sig, e := normSignificand(x)
	if sig != HiddenBit {
		t.Fatalf("sig = %#x, want %#x", sig, HiddenBit)
	}
	if got := math.Ldexp(float64(sig), e-MantissaBits); got != x {
		t.Fatalf("reconstructed %g, want %g", got, x)
	}
}

func TestClassifiers(t *testing.T) {
	if !IsNaN(math.Float64bits(math.NaN())) {
		t.Error("IsNaN(NaN) = false")
	}
	if IsNaN(math.Float64bits(math.Inf(1))) {
		t.Error("IsNaN(Inf) = true")
	}
	if !IsInf(math.Float64bits(math.Inf(-1))) {
		t.Error("IsInf(-Inf) = false")
	}
	if IsInf(math.Float64bits(1.0)) {
		t.Error("IsInf(1) = true")
	}
	if !IsSubnormal(math.Float64frombits(1)) {
		t.Error("IsSubnormal(minSubnormal) = false")
	}
	if IsSubnormal(1.0) || IsSubnormal(0) {
		t.Error("IsSubnormal misclassifies normal/zero")
	}
}

func TestRoundShift64(t *testing.T) {
	cases := []struct {
		q      uint64
		s      uint
		sticky bool
		want   uint64
	}{
		{0b1011, 1, false, 0b110}, // 5.5 -> 6 (tie to even... 1011/2=101.1 tie -> 110)
		{0b1001, 1, false, 0b100}, // 4.5 -> 4 (tie to even)
		{0b1001, 1, true, 0b101},  // 4.5+eps -> 5
		{0b1000, 2, false, 0b10},  // exact
		{0xFF, 4, false, 0x10},    // 15.9375 -> 16
		{1, 64, false, 0},
		{1 << 63, 64, false, 0},   // exactly 1/2 -> 0 (even)
		{1<<63 | 1, 64, false, 1}, // just over 1/2 -> 1
		{1 << 63, 64, true, 1},    // 1/2 + sticky -> 1
		{42, 0, false, 42},        // no shift
		{3, 200, false, 0},        // everything gone
	}
	for _, c := range cases {
		if got := roundShift64(c.q, c.s, c.sticky); got != c.want {
			t.Errorf("roundShift64(%#b, %d, %v) = %#b, want %#b",
				c.q, c.s, c.sticky, got, c.want)
		}
	}
}

func TestRound128MatchesRoundShift64(t *testing.T) {
	f := func(lo uint64, s8 uint8, sticky bool) bool {
		s := uint(s8 % 64)
		return round128(0, lo, s, sticky) == roundShift64(lo, s, sticky)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitLen128(t *testing.T) {
	cases := []struct {
		hi, lo uint64
		want   int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 1 << 63, 64},
		{1, 0, 65},
		{1 << 41, 0, 106},
	}
	for _, c := range cases {
		if got := bitLen128(c.hi, c.lo); got != c.want {
			t.Errorf("bitLen128(%#x,%#x) = %d, want %d", c.hi, c.lo, got, c.want)
		}
	}
}
