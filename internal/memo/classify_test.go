package memo

import (
	"math"
	"math/rand"
	"testing"

	"memotable/internal/arith"
	"memotable/internal/isa"
)

// arithTrivial is the reference verdict on one pair: the arith detectors
// Unit.Apply runs.
func arithTrivial(op isa.Op, a, b uint64) bool {
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	var tr arith.Triviality
	switch op {
	case isa.OpIMul:
		tr, _ = arith.ClassifyIMul(int64(a), int64(b))
	case isa.OpFMul:
		tr, _ = arith.ClassifyFMul(fa, fb)
	case isa.OpFDiv:
		tr, _ = arith.ClassifyFDiv(fa, fb)
	case isa.OpFSqrt:
		tr, _ = arith.ClassifyFSqrt(fa)
	}
	return tr.Trivial()
}

// checkClassify classifies every pair of as and bs in one column of op
// and holds the kept pairs, in order, to the pairs the arith detectors
// find non-trivial.
func checkClassify(t *testing.T, op isa.Op, as, bs []uint64) {
	t.Helper()
	var c Column
	c.Reset(op)
	for i, a := range as {
		c.Push(a, bs[i])
	}
	c.classify()
	k := 0
	for i, a := range as {
		b := bs[i]
		kept := k < len(c.na) && c.na[k] == a && c.nb[k] == b
		if kept == arithTrivial(op, a, b) {
			t.Fatalf("%v(%#x, %#x): column kept=%v, arith trivial=%v", op, a, b, kept, !kept)
		}
		if kept {
			k++
		}
	}
	if k != len(c.na) {
		t.Fatalf("%v: column kept %d pairs, matched %d", op, len(c.na), k)
	}
}

// classifyPool holds the operands the detectors turn on: signed zeros,
// ±1.0, 2.0, the integers 1, 2 and -1, subnormals, infinities, quiet
// and signalling NaNs with payloads, neighbours of 1.0 and random
// normals.
func classifyPool(rng *rand.Rand) []uint64 {
	pool := []uint64{
		0, 1 << 63, // ±0
		0x3ff0000000000000, 0xbff0000000000000, // ±1.0
		0x4000000000000000, // 2.0
		1, 2, ^uint64(0),   // the integers 1, 2 and -1
		0x000fffffffffffff, 1<<63 | 1, // subnormals
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff8000000000001, 0xfff8000000000123, // quiet NaNs
		0x7ff0000000000001, 0x7ff4000000000000, 0xfff0000000000042, // signalling NaNs
		0x3ff0000000000001, 0x3fefffffffffffff, // neighbours of 1.0
	}
	for range 12 {
		e := 1 + uint64(rng.Intn(2046))
		pool = append(pool, uint64(rng.Intn(2))<<63|e<<52|rng.Uint64()&(1<<52-1))
	}
	return pool
}

// TestColumnClassifyMatchesArith: the column's bit-pattern classifier
// keeps exactly the pairs the arith detectors find non-trivial, for
// every class and every pair of the pool.
func TestColumnClassifyMatchesArith(t *testing.T) {
	pool := classifyPool(rand.New(rand.NewSource(1)))
	for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
		var as, bs []uint64
		for _, a := range pool {
			for _, b := range pool {
				if op.Unary() {
					b = 0
				}
				as, bs = append(as, a), append(bs, b)
			}
		}
		checkClassify(t, op, as, bs)
	}
}

// FuzzColumnClassifyMatchesArith holds the classifier to the arith
// detectors on arbitrary operand patterns, in both orders.
func FuzzColumnClassifyMatchesArith(f *testing.F) {
	f.Add(uint64(0), uint64(0x3ff0000000000000))
	f.Add(uint64(1<<63), uint64(0x7ff8000000000001))
	f.Add(uint64(1), uint64(0x7ff0000000000000))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv} {
			checkClassify(t, op, []uint64{a, b}, []uint64{b, a})
		}
		checkClassify(t, isa.OpFSqrt, []uint64{a, b}, []uint64{0, 0})
	})
}
