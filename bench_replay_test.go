package memotable_test

// Delivery throughput: a fused 8-sink geometry sweep over one synthetic
// workload, in delivered events/s. CI's bench smoke runs it.

import (
	"math"
	"testing"

	"memotable"
	"memotable/internal/experiments"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

const (
	benchReplayEvents = 512 * 1024
	benchReplaySinks  = 8
	benchReplayKey    = "bench-replay"
)

// benchReplayCapture is the measured workload: an even mix of the four
// memoizable classes over a 512-value operand pool, so each sink's memo
// tables run their realistic hit/miss blend.
func benchReplayCapture(s trace.Sink) {
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 16
	}
	for i := 0; i < benchReplayEvents; i++ {
		r1, r2 := next()%512, next()%512
		var ev trace.Event
		switch i % 4 {
		case 0:
			ev = trace.Event{Op: isa.OpIMul, A: r1 + 2, B: r2 + 2}
		case 1:
			ev = trace.Event{Op: isa.OpFMul,
				A: math.Float64bits(1.5 + float64(r1)), B: math.Float64bits(2.5 + float64(r2))}
		case 2:
			ev = trace.Event{Op: isa.OpFDiv,
				A: math.Float64bits(3.5 + float64(r1)), B: math.Float64bits(1.5 + float64(r2))}
		default:
			ev = trace.Event{Op: isa.OpFSqrt, A: math.Float64bits(1.5 + float64(r1*512+r2))}
		}
		s.Emit(ev)
	}
}

// benchReplaySinkSet builds the fused geometry sweep: n independent
// paper-geometry table sets.
func benchReplaySinkSet(n int) []trace.Sink {
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		sinks[i] = experiments.NewTableSet(memo.Paper32x4(), memo.NonTrivialOnly)
	}
	return sinks
}

// BenchmarkReplayDelivery times fused runs of the workload into the
// geometry sweep, delivered serially in 8192-event batches.
func BenchmarkReplayDelivery(b *testing.B) {
	eng := memotable.NewEngine(benchReplaySinks)
	defer func() { _ = eng.Close() }()
	for i := 0; i < b.N; i++ {
		sinks := benchReplaySinkSet(benchReplaySinks)
		if _, err := eng.ReplayAll(benchReplayKey, benchReplayCapture, sinks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*benchReplayEvents*benchReplaySinks/b.Elapsed().Seconds(), "events/s")
}
