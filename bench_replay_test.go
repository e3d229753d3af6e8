package memotable_test

// Replay-delivery throughput trajectory: the same fused 8-sink geometry
// sweep measured under serial delivery (fan-out 1, the pre-PR-8 path)
// and under the fan-out pipeline. BenchmarkReplayDelivery* feeds the CI
// bench smoke; TestBenchReplayFanout additionally writes the
// machine-readable BENCH_replay.json when MEMOTABLE_BENCH_REPLAY names
// an output path, and asserts the fan-out regime is not slower than
// serial at 8 sinks (within 5% measurement noise — on a single-core
// runner the two regimes are equal by construction, the pipeline can
// only buy wall-clock where GOMAXPROCS > 1).

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

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
// paper-geometry table sets, each a distinct fan-out consumer.
func benchReplaySinkSet(n int) []trace.Sink {
	sinks := make([]trace.Sink, n)
	for i := range sinks {
		sinks[i] = experiments.NewTableSet(memo.Paper32x4(), memo.NonTrivialOnly)
	}
	return sinks
}

// measureReplay times rounds fused replays of the warmed workload at the
// given fan-out budget and returns the best round's delivered events/s
// and ns per delivered event.
func measureReplay(tb testing.TB, eng *memotable.Engine, fanout, rounds int) (eps, nsPerEvent float64) {
	tb.Helper()
	eng.SetFanOut(fanout)
	best := time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		sinks := benchReplaySinkSet(benchReplaySinks)
		start := time.Now()
		n, err := eng.ReplayAll(benchReplayKey, benchReplayCapture, sinks)
		elapsed := time.Since(start)
		if err != nil {
			tb.Fatalf("ReplayAll(fanout=%d): %v", fanout, err)
		}
		if n != benchReplayEvents {
			tb.Fatalf("replayed %d events, want %d", n, benchReplayEvents)
		}
		if elapsed < best {
			best = elapsed
		}
	}
	delivered := float64(benchReplayEvents) * benchReplaySinks
	return delivered / best.Seconds(), float64(best.Nanoseconds()) / delivered
}

func benchReplayRegime(b *testing.B, fanout int) {
	eng := memotable.NewEngine(benchReplaySinks)
	defer func() { _ = eng.Close() }()
	eng.SetFanOut(fanout)
	if err := eng.Warm(benchReplayKey, benchReplayCapture); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinks := benchReplaySinkSet(benchReplaySinks)
		if _, err := eng.ReplayAll(benchReplayKey, benchReplayCapture, sinks); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*benchReplayEvents*benchReplaySinks/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkReplayDeliverySerial(b *testing.B)  { benchReplayRegime(b, 1) }
func BenchmarkReplayDeliveryFanout8(b *testing.B) { benchReplayRegime(b, benchReplaySinks) }

// benchReplayReport is the BENCH_replay.json schema.
type benchReplayReport struct {
	Workload string         `json:"workload"`
	Events   uint64         `json:"events"`
	Sinks    int            `json:"sinks"`
	CPUs     int            `json:"cpus"`
	Serial   benchReplayLeg `json:"serial"`
	Fanout   benchReplayLeg `json:"fanout"`
	Speedup  float64        `json:"speedup"`
}

// benchReplayLeg is one delivery regime's measurement.
type benchReplayLeg struct {
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	Workers      int     `json:"workers"`
	RingStalls   uint64  `json:"ring_stalls,omitempty"`
}

// TestBenchReplayFanout measures serial vs fan-out delivery on one
// warmed engine and emits BENCH_replay.json. Gated behind
// MEMOTABLE_BENCH_REPLAY so the ordinary test run stays fast.
func TestBenchReplayFanout(t *testing.T) {
	out := os.Getenv("MEMOTABLE_BENCH_REPLAY")
	if out == "" {
		t.Skip("set MEMOTABLE_BENCH_REPLAY=<path> to run the replay throughput bench")
	}
	eng := memotable.NewEngine(benchReplaySinks)
	defer func() { _ = eng.Close() }()
	if err := eng.Warm(benchReplayKey, benchReplayCapture); err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	serialEPS, serialNs := measureReplay(t, eng, 1, rounds)
	if eng.Stats().FanoutReplays != 0 {
		t.Fatal("serial regime fanned out")
	}
	stalls0 := eng.Stats().RingStalls
	fanEPS, fanNs := measureReplay(t, eng, benchReplaySinks, rounds)
	if eng.Stats().FanoutReplays == 0 {
		t.Fatal("fan-out regime delivered serially")
	}

	rep := benchReplayReport{
		Workload: benchReplayKey,
		Events:   benchReplayEvents,
		Sinks:    benchReplaySinks,
		CPUs:     runtime.NumCPU(),
		Serial:   benchReplayLeg{EventsPerSec: serialEPS, NsPerEvent: serialNs, Workers: 1},
		Fanout: benchReplayLeg{EventsPerSec: fanEPS, NsPerEvent: fanNs,
			Workers: benchReplaySinks, RingStalls: eng.Stats().RingStalls - stalls0},
		Speedup: fanEPS / serialEPS,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("serial: %.1fM events/s (%.1f ns/event); fan-out(%d): %.1fM events/s (%.1f ns/event); speedup %.2fx on %d CPU(s)",
		serialEPS/1e6, serialNs, benchReplaySinks, fanEPS/1e6, fanNs, rep.Speedup, rep.CPUs)

	// The CI contract: fan-out must not be slower than serial at 8 sinks.
	// 5% headroom absorbs scheduler noise; any real regression (ring
	// overhead outweighing parallel delivery) lands far below it.
	if fanEPS < 0.95*serialEPS {
		t.Errorf("fan-out regime slower than serial: %.1fM vs %.1fM events/s", fanEPS/1e6, serialEPS/1e6)
	}
}
