// Package arith provides IEEE-754 double-precision decomposition helpers,
// trivial-operand classification, and bit-exact models of the multi-cycle
// computation units the paper's MEMO-TABLEs shadow: a Booth-recoded integer
// multiplier, a radix-4 SRT divider (with its quotient-selection lookup
// table), and a digit-recurrence square root.
//
// The MEMO-TABLE proposal (Citron, Feitelson, Rudolph; ASPLOS 1998) bypasses
// these units on a tag hit; this package supplies both the unit semantics
// (so bypassed results can be checked bit-for-bit) and the latency models
// used by the cycle simulator.
package arith

import "math"

// IEEE-754 double-precision field widths and masks.
const (
	// MantissaBits is the number of explicitly stored significand bits.
	MantissaBits = 52
	// ExponentBits is the width of the biased exponent field.
	ExponentBits = 11
	// ExponentBias is the bias applied to the stored exponent.
	ExponentBias = 1023
	// ExponentMax is the largest biased exponent (all ones: Inf/NaN).
	ExponentMax = 1<<ExponentBits - 1

	mantissaMask = 1<<MantissaBits - 1
	exponentMask = uint64(ExponentMax) << MantissaBits
	signMask     = uint64(1) << 63

	// HiddenBit is the implicit leading significand bit of a normal number.
	HiddenBit = uint64(1) << MantissaBits
)

// Fields holds the unpacked fields of a double-precision value.
type Fields struct {
	Sign     bool   // true if negative
	Exponent int    // biased exponent as stored (0..2047)
	Mantissa uint64 // 52 stored bits, hidden bit NOT included
}

// Unpack splits x into its IEEE-754 fields.
func Unpack(x float64) Fields {
	b := math.Float64bits(x)
	return Fields{
		Sign:     b&signMask != 0,
		Exponent: int((b & exponentMask) >> MantissaBits),
		Mantissa: b & mantissaMask,
	}
}

// Pack reassembles IEEE-754 fields into a float64. The mantissa is masked to
// its 52-bit field; the exponent is masked to 11 bits.
func Pack(f Fields) float64 {
	var b uint64
	if f.Sign {
		b = signMask
	}
	b |= uint64(f.Exponent&ExponentMax) << MantissaBits
	b |= f.Mantissa & mantissaMask
	return math.Float64frombits(b)
}

// Significand returns the full significand of x including the hidden bit for
// normal numbers (53 bits), or the raw mantissa for subnormals, along with
// the unbiased exponent of the leading stored-bit position. For zero it
// returns (0, 0).
func Significand(x float64) (sig uint64, exp int) {
	f := Unpack(x)
	switch {
	case f.Exponent == 0 && f.Mantissa == 0:
		return 0, 0
	case f.Exponent == 0: // subnormal
		return f.Mantissa, 1 - ExponentBias
	default:
		return f.Mantissa | HiddenBit, f.Exponent - ExponentBias
	}
}

// Mantissa returns the 52 stored mantissa bits of x. This is the quantity a
// mantissa-only MEMO-TABLE tags on (§2.1 of the paper).
func Mantissa(x float64) uint64 {
	return math.Float64bits(x) & mantissaMask
}

// IsNaN reports whether the bit pattern b encodes a NaN.
func IsNaN(b uint64) bool {
	return b&exponentMask == exponentMask && b&mantissaMask != 0
}

// IsInf reports whether the bit pattern b encodes ±Inf.
func IsInf(b uint64) bool {
	return b&exponentMask == exponentMask && b&mantissaMask == 0
}

// IsSubnormal reports whether x is subnormal (nonzero with a zero exponent
// field).
func IsSubnormal(x float64) bool {
	f := Unpack(x)
	return f.Exponent == 0 && f.Mantissa != 0
}

// quietNaN is the canonical quiet NaN returned by the arithmetic units.
func quietNaN() float64 {
	return math.Float64frombits(exponentMask | 1<<(MantissaBits-1))
}
