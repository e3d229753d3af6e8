package memo

import (
	"math"
	"testing"

	"memotable/internal/isa"
)

// benchTable drives one table with a deterministic operand stream drawn
// from a pool of the given size: a small pool keeps the table hit-heavy
// (the probe path dominates), a large pool keeps it miss-and-evict-heavy
// (the insert path dominates). The stream repeats every streamLen
// accesses, so a cold case needs a stream longer than the table.
func benchTable(b *testing.B, op isa.Op, cfg Config, pool uint64, streamLen int) {
	t := New(op, cfg)
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
// baseline hot and cold, a direct-mapped variant, the integer
// multiplier's XOR-indexed path, the largest swept table cold, a hit
// found only in the swapped operand order, and the unbounded table hot
// and growing.
func BenchmarkTable(b *testing.B) {
	b.Run("fmul-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 5, 4096)
	})
	b.Run("fmul-32x4-cold", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 512, 4096)
	})
	b.Run("fmul-32x1-hot", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 1}, 5, 4096)
	})
	b.Run("fmul-32x1-cold", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 1}, 512, 4096)
	})
	b.Run("imul-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpIMul, Config{Entries: 32, Ways: 4}, 5, 4096)
	})
	b.Run("fsqrt-32x4-hot", func(b *testing.B) {
		benchTable(b, isa.OpFSqrt, Config{Entries: 32, Ways: 4}, 5, 4096)
	})
	// Mixed hit/insert traffic: inserts shift the hot entries deeper, so
	// repeat hits scan past the fresh inserts.
	b.Run("fmul-32x4-mixed", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 32, Ways: 4}, 64, 4096)
	})
	// 16384 distinct pairs against 8192 entries: nearly every access
	// misses, and the insert evicts from a 4-way set of a large table.
	b.Run("fmul-8192x4-cold", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Config{Entries: 8192, Ways: 4}, 1<<12, 1<<14)
	})
	b.Run("fmul-32x4-swapped", func(b *testing.B) {
		benchSwapped(b, Config{Entries: 32, Ways: 4})
	})
	b.Run("fmul-inf-hot", func(b *testing.B) {
		benchTable(b, isa.OpFMul, Infinite(), 64, 4096)
	})
	b.Run("fmul-inf-growing", func(b *testing.B) {
		benchGrowing(b, isa.OpFMul)
	})
}

// benchSwapped fills a table with a few operand pairs, then presents each
// in the swapped order only: every access is a commutative hit that no
// way matches in the presented order.
func benchSwapped(b *testing.B, cfg Config) {
	t := New(isa.OpFMul, cfg)
	const pairs = 4
	for i := 0; i < pairs; i++ {
		t.Insert(math.Float64bits(1.5+float64(i)), math.Float64bits(2.5+float64(i)), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := float64(i % pairs)
		if _, hit := t.Lookup(math.Float64bits(2.5+j), math.Float64bits(1.5+j)); !hit {
			b.Fatal("swapped-order lookup missed")
		}
	}
}

// benchGrowing presents a fresh operand pair on every access, so the
// unbounded table misses, inserts and grows; it is reset every 2^20
// entries to bound its memory, and so also pays for growing from empty.
func benchGrowing(b *testing.B, op isa.Op) {
	t := New(op, Infinite())
	compute := func() uint64 { return 0 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<20-1) == 0 {
			t.Reset()
		}
		t.Access(math.Float64bits(1.5+float64(i)), math.Float64bits(2.5), compute)
	}
}

// BenchmarkUnitColumn compares per-event Apply with the batch path (a
// column filled, classified and run by one unit) on one unit, the case
// with nothing to share: each iteration is one event, one in eight of
// them trivial.
func BenchmarkUnitColumn(b *testing.B) {
	const block = 4096
	for _, tc := range []struct {
		name string
		cfg  Config
		pool uint64
	}{
		{"32x4-mixed", Config{Entries: 32, Ways: 4}, 64},
		{"32x1-mixed", Config{Entries: 32, Ways: 1}, 64},
		{"1024x4-mixed", Config{Entries: 1024, Ways: 4}, 64},
		{"8192x4-mixed", Config{Entries: 8192, Ways: 4}, 64},
		{"inf-mixed", Infinite(), 64},
		{"32x4-mant", Config{Entries: 32, Ways: 4, MantissaOnly: true}, 64},
	} {
		as := make([]uint64, block)
		bs := make([]uint64, block)
		seed := uint64(0x9e3779b97f4a7c15)
		for i := range as {
			seed = seed*6364136223846793005 + 1442695040888963407
			av, bv := seed>>33%tc.pool, seed>>13%tc.pool
			as[i], bs[i] = math.Float64bits(1.5+float64(av)), math.Float64bits(2.5+float64(bv))
			if i%8 == 0 {
				bs[i] = math.Float64bits(1)
			}
		}
		b.Run(tc.name+"/apply", func(b *testing.B) {
			u := NewUnit(New(isa.OpFMul, tc.cfg), NonTrivialOnly, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % block
				u.Apply(as[j], bs[j])
			}
		})
		b.Run(tc.name+"/column", func(b *testing.B) {
			u := NewUnit(New(isa.OpFMul, tc.cfg), NonTrivialOnly, nil)
			var c Column
			b.ReportAllocs()
			for i := 0; i < b.N; i += block {
				c.Reset(isa.OpFMul)
				for j := range min(block, b.N-i) {
					c.Push(as[j], bs[j])
				}
				u.ApplyColumn(&c)
			}
		})
	}
}
