package memo

import (
	"math"
	"testing"

	"memotable/internal/isa"
)

// benchTable drives one table with a deterministic operand stream drawn
// from a pool of the given size: a small pool keeps the table hit-heavy
// (the probe path dominates), a large pool keeps it miss-and-evict-heavy
// (the insert path dominates).
func benchTable(b *testing.B, op isa.Op, cfg Config, pool uint64) {
	t := New(op, cfg)
	const streamLen = 4096
	as := make([]uint64, streamLen)
	bs := make([]uint64, streamLen)
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for i := range as {
		av, bv := next()%pool, next()%pool
		switch {
		case op == isa.OpIMul:
			as[i], bs[i] = av+2, bv+2
		case op.Unary():
			as[i] = math.Float64bits(1.5 + float64(av*pool+bv))
		default:
			as[i] = math.Float64bits(1.5 + float64(av))
			bs[i] = math.Float64bits(2.5 + float64(bv))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % streamLen
		if _, hit := t.Lookup(as[j], bs[j]); !hit {
			t.Insert(as[j], bs[j], as[j]^bs[j])
		}
	}
}

// BenchmarkTable measures the probe/insert fast paths across the
// geometries the experiment matrix exercises most: the paper's 32/4
// baseline hot and cold, a direct-mapped variant, and the integer
// multiplier's XOR-indexed path.
func BenchmarkTable(b *testing.B) {
	b.Run("fmul-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 5)
	})
	b.Run("fmul-32x4-cold", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 512)
	})
	b.Run("fmul-32x1-hot", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 1}, 5)
	})
	b.Run("fmul-32x1-cold", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 1}, 512)
	})
	b.Run("imul-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpIMul, Config{Entries: 32, Ways: 4}, 5)
	})
	b.Run("fsqrt-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpFSqrt, Config{Entries: 32, Ways: 4}, 5)
	})
	// Mixed hit/insert traffic: inserts shift the hot entries deeper, so
	// repeat hits scan past the fresh inserts.
	b.Run("fmul-32x4-mixed", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 64)
	})
}
