package memotable_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§3). Each benchmark runs its experiment end to end — trace
// generation, MEMO-TABLE simulation, cycle modelling — and logs the
// rendered table on the first iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's reported rows. Shapes, not absolute numbers, are
// the reproduction target (see EXPERIMENTS.md). Ablation benchmarks for
// the design choices called out in DESIGN.md follow the per-table ones.

import (
	"math"
	"sync"
	"testing"

	"memotable"
	"memotable/internal/arith"
	"memotable/internal/experiments"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/probe"
	"memotable/internal/trace"
	"memotable/internal/workloads"
)

// benchScale keeps full-matrix experiments inside the benchmark budget;
// cmd/memosim -scale full runs the larger geometry.
const benchScale = memotable.Quick

// logOnce renders an experiment's output into the benchmark log exactly
// once per process.
var logged sync.Map

func logResult(b *testing.B, name, rendered string) {
	if _, dup := logged.LoadOrStore(name, true); !dup {
		b.Log("\n" + rendered)
	}
}

func benchExperiment(b *testing.B, name string, scale memotable.Scale) {
	for i := 0; i < b.N; i++ {
		out, err := memotable.RunExperiment(name, scale)
		if err != nil {
			b.Fatal(err)
		}
		logResult(b, name, out)
	}
}

// BenchmarkTable1 regenerates the processor latency table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", benchScale) }

// BenchmarkTable5 regenerates the Perfect-suite hit ratios (32/4 vs
// infinite).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5", benchScale) }

// BenchmarkTable6 regenerates the SPEC CFP95 hit ratios.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6", benchScale) }

// BenchmarkTable7 regenerates the Multi-Media hit ratios.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7", benchScale) }

// BenchmarkTable8 regenerates the per-image entropy/hit-ratio table.
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8", memotable.Tiny) }

// BenchmarkFigure2 regenerates the hit-ratio-vs-entropy fits.
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2", memotable.Tiny) }

// BenchmarkTable9 regenerates the trivial-operation policy comparison.
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9", memotable.Tiny) }

// BenchmarkTable10 regenerates the mantissa-only tagging comparison.
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10", benchScale) }

// BenchmarkFigure3 regenerates the table-size sweep (8..8192 entries).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3", memotable.Tiny) }

// BenchmarkFigure4 regenerates the associativity sweep (1..8 ways).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4", memotable.Tiny) }

// BenchmarkTable11 regenerates the fdiv-memoization speedups.
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11", memotable.Tiny) }

// BenchmarkTable12 regenerates the fmul-memoization speedups.
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12", memotable.Tiny) }

// BenchmarkTable13 regenerates the combined fmul+fdiv speedups.
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13", memotable.Tiny) }

// --- ablations ------------------------------------------------------------

// ablationInput is a shared high-entropy workload input, chosen so the
// 32-entry hit ratios sit mid-range where design deltas are visible.
func ablationInput() *imaging.Image {
	return imaging.Find("mandrill").Image.Decimate(96)
}

// measureApp runs one MM application over the ablation input against one
// table configuration and returns the fp-division and fp-multiplication
// hit ratios.
func measureApp(b *testing.B, appName string, cfg memo.Config) (fdiv, fmul float64) {
	b.Helper()
	app, err := workloads.Lookup(appName)
	if err != nil {
		b.Fatal(err)
	}
	ts, _ := experiments.Measure(
		experiments.ImageRun(app.Run, ablationInput()), cfg, memo.NonTrivialOnly)
	return ts.HitRatio(isa.OpFDiv), ts.HitRatio(isa.OpFMul)
}

// BenchmarkAblationCommutativeLookup quantifies §2.2's double compare on
// a stream where both operand orders genuinely occur: a Gram-matrix
// kernel computing v[i]*v[j] over all ordered pairs, the canonical
// symmetric-products workload. Our image applications keep fixed operand
// order at each call site, so this ablation uses the dedicated stream.
func BenchmarkAblationCommutativeLookup(b *testing.B) {
	img := ablationInput()
	vals := make([]float64, 48)
	for i := range vals {
		vals[i] = img.At(i%img.W, (i*7)%img.H, 0) + 1
	}
	run := func(cfg memo.Config) float64 {
		tab := memo.New(isa.OpFMul, cfg)
		for i := range vals {
			for j := range vals {
				if i == j {
					continue
				}
				a := math.Float64bits(vals[i])
				c := math.Float64bits(vals[j])
				tab.Access(a, c, func() uint64 {
					return math.Float64bits(vals[i] * vals[j])
				})
			}
		}
		return tab.Stats().HitRatio()
	}
	var withRatio, withoutRatio float64
	for i := 0; i < b.N; i++ {
		withRatio = run(memo.Config{Entries: 512, Ways: 4})
		off := memo.Config{Entries: 512, Ways: 4, NoCommutativeLookup: true}
		withoutRatio = run(off)
		if withoutRatio > withRatio+1e-9 {
			b.Fatalf("disabling commutative lookup raised the ratio: %.3f > %.3f",
				withoutRatio, withRatio)
		}
	}
	b.ReportMetric(withRatio, "fmul-hit/commutative")
	b.ReportMetric(withoutRatio, "fmul-hit/ordered-only")
}

// BenchmarkAblationMantissaTags quantifies §2.1's mantissa-only variation
// on a division-heavy application.
func BenchmarkAblationMantissaTags(b *testing.B) {
	var full, mant float64
	for i := 0; i < b.N; i++ {
		full, _ = measureApp(b, "vsurf", memo.Paper32x4())
		cfg := memo.Paper32x4()
		cfg.MantissaOnly = true
		mant, _ = measureApp(b, "vsurf", cfg)
	}
	b.ReportMetric(full, "fdiv-hit/full-tags")
	b.ReportMetric(mant, "fdiv-hit/mantissa-tags")
}

// BenchmarkAblationAssociativity quantifies the conflict-miss pathology
// Figure 4 discusses (alternating near-identical values thrash a
// direct-mapped table).
func BenchmarkAblationAssociativity(b *testing.B) {
	var direct, assoc4 float64
	for i := 0; i < b.N; i++ {
		direct, _ = measureApp(b, "vgauss", memo.Config{Entries: 32, Ways: 1})
		assoc4, _ = measureApp(b, "vgauss", memo.Config{Entries: 32, Ways: 4})
	}
	b.ReportMetric(direct, "fdiv-hit/direct-mapped")
	b.ReportMetric(assoc4, "fdiv-hit/4-way")
}

// --- microbenchmarks of the core mechanisms --------------------------------

// BenchmarkMemoTableAccess measures the per-operation cost of the 32/4
// lookup-insert protocol on a mixed hit/miss stream.
func BenchmarkMemoTableAccess(b *testing.B) {
	tab := memo.New(isa.OpFDiv, memo.Paper32x4())
	compute := func() uint64 { return 42 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := math.Float64bits(float64(i&63) + 0.5)
		tab.Access(a, math.Float64bits(3), compute)
	}
}

// BenchmarkMemoTableInfinite measures the unbounded-table variant.
func BenchmarkMemoTableInfinite(b *testing.B) {
	tab := memo.New(isa.OpFDiv, memo.Infinite())
	compute := func() uint64 { return 42 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := math.Float64bits(float64(i&1023) + 0.5)
		tab.Access(a, math.Float64bits(3), compute)
	}
}

// BenchmarkBoothMultiplier measures the bit-exact radix-4 Booth fp
// multiply.
func BenchmarkBoothMultiplier(b *testing.B) {
	var m arith.Multiplier
	x := 1.5
	for i := 0; i < b.N; i++ {
		x = m.MulFloat64(x, 1.0000000001)
	}
	sinkFloat = x
}

// BenchmarkSRTDividerExact measures the divider with exact quotient
// selection.
func BenchmarkSRTDividerExact(b *testing.B) {
	var d arith.Divider
	for i := 0; i < b.N; i++ {
		sinkFloat = d.DivFloat64(float64(i)+1.5, 3.25)
	}
}

// BenchmarkSRTDividerQST measures the divider with table-based quotient
// selection (the hardware-faithful path).
func BenchmarkSRTDividerQST(b *testing.B) {
	d := arith.Divider{QSel: arith.NewQST()}
	for i := 0; i < b.N; i++ {
		sinkFloat = d.DivFloat64(float64(i)+1.5, 3.25)
	}
}

// BenchmarkDigitRecurrenceSqrt measures the square-root unit.
func BenchmarkDigitRecurrenceSqrt(b *testing.B) {
	var s arith.Sqrter
	for i := 0; i < b.N; i++ {
		sinkFloat = s.SqrtFloat64(float64(i) + 2)
	}
}

// BenchmarkProbeOverhead measures the instrumentation layer's cost per
// emitted event.
func BenchmarkProbeOverhead(b *testing.B) {
	var c trace.Counter
	p := probe.New(&c)
	for i := 0; i < b.N; i++ {
		sinkFloat = p.FMul(1.5, 2.5)
	}
}

// BenchmarkTraceWrite measures binary trace encoding throughput.
func BenchmarkTraceWrite(b *testing.B) {
	w, err := trace.NewWriterV2(discard{}, false)
	if err != nil {
		b.Fatal(err)
	}
	ev := trace.Event{Op: isa.OpFMul, A: 0x3FF8000000000000, B: 0x4004000000000000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// sinkFloat defeats dead-code elimination in microbenchmarks.
var sinkFloat float64

// --- engine benchmarks -----------------------------------------------------
//
// The serial per-table benchmarks above run every experiment on the
// serial reference engine (RunExperiment). The *Parallel benchmarks
// below drive the same experiments through a fresh parallel engine per
// iteration, which runs independent workloads concurrently on the worker
// pool — what `cmd/memosim -parallel N` does per invocation.

// benchEngineExperiment runs one experiment per iteration through eng
// (nil means a fresh parallel engine each iteration).
func benchEngineExperiment(b *testing.B, eng *memotable.Engine, name string, scale memotable.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e := eng
		if e == nil {
			e = memotable.NewEngine(0)
		}
		out, err := memotable.RunExperimentWith(e, name, scale)
		if err != nil {
			b.Fatal(err)
		}
		logResult(b, name, out)
	}
}

// BenchmarkFigure3Parallel runs the table-size sweep on a fresh parallel
// engine each iteration (each workload runs once into all 11 configs).
func BenchmarkFigure3Parallel(b *testing.B) {
	benchEngineExperiment(b, nil, "figure3", memotable.Tiny)
}

// BenchmarkTable13Parallel runs the combined fmul+fdiv speedup study on a
// fresh parallel engine each iteration.
func BenchmarkTable13Parallel(b *testing.B) {
	benchEngineExperiment(b, nil, "table13", memotable.Tiny)
}

// BenchmarkSpeedupSuiteSharedEngine runs tables 11-13 on one parallel
// engine per iteration, one experiment at a time; memotable.Run would
// run the nine applications the three studies share once for all of
// them.
func BenchmarkSpeedupSuiteSharedEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := memotable.NewEngine(0)
		for _, name := range []string{"table11", "table12", "table13"} {
			out, err := memotable.RunExperimentWith(eng, name, memotable.Tiny)
			if err != nil {
				b.Fatal(err)
			}
			logResult(b, name, out)
		}
	}
}

// BenchmarkSpeedupSuiteSerial is the baseline for the shared-engine
// benchmark: the same three studies on the serial reference engine.
func BenchmarkSpeedupSuiteSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"table11", "table12", "table13"} {
			out, err := memotable.RunExperiment(name, memotable.Tiny)
			if err != nil {
				b.Fatal(err)
			}
			logResult(b, name, out)
		}
	}
}

// BenchmarkEngineReplay measures the raw run path: one small workload
// run into one sink, the unit of work the pool parallelizes.
func BenchmarkEngineReplay(b *testing.B) {
	eng := memotable.NewEngine(1)
	capture := func(p *probe.Probe) {
		for i := 0; i < 4096; i++ {
			sinkFloat = p.FMul(float64(i&127)+0.5, 3.25)
		}
	}
	run := func() {
		var c trace.Counter
		n, err := eng.Replay("bench", func(s trace.Sink) { capture(probe.New(s)) }, &c)
		if err != nil || n != 4096 {
			b.Fatalf("replay: n=%d err=%v", n, err)
		}
	}
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(4096*b.N)/b.Elapsed().Seconds(), "events/s")
}

// benchMatrix runs the whole evaluation matrix (every experiment, tiny
// scale) on one engine per iteration, configured by the caller.
func benchMatrix(b *testing.B, workers int, configure func(b *testing.B, eng *memotable.Engine)) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := memotable.NewEngine(workers)
		configure(b, eng)
		b.StartTimer()
		for _, name := range memotable.Experiments() {
			if _, err := memotable.RunExperimentWith(eng, name, memotable.Tiny); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
}

// BenchmarkEvaluationMatrixCached is the baseline: the drivers run each
// workload in fused multi-config passes, but each experiment runs as its
// own invocation, so a workload shared by several experiments runs once
// per experiment. The name predates the removal of the trace cache.
func BenchmarkEvaluationMatrixCached(b *testing.B) {
	benchMatrix(b, 8, func(*testing.B, *memotable.Engine) {})
}

// benchFusedMatrix runs the whole registry through one planned
// memotable.Run pass per iteration: the cross-experiment planner runs
// each demanded workload once, feeding every subscribed experiment's
// sinks together.
func benchFusedMatrix(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := memotable.NewEngine(workers)
		b.StartTimer()
		if _, err := memotable.Run(eng, memotable.Tiny); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		eng.Close()
		b.StartTimer()
	}
}

// BenchmarkEvaluationMatrixFused is the planner path at 8 workers;
// compare against BenchmarkEvaluationMatrixCached, which runs the same
// matrix one experiment at a time.
func BenchmarkEvaluationMatrixFused(b *testing.B) { benchFusedMatrix(b, 8) }

// BenchmarkEvaluationMatrixFused1Worker is the planner path single
// threaded; compare against BenchmarkEvaluationMatrix1Worker.
func BenchmarkEvaluationMatrixFused1Worker(b *testing.B) { benchFusedMatrix(b, 1) }

// BenchmarkEvaluationMatrix1Worker is the single-threaded per-experiment
// matrix; compare against BenchmarkEvaluationMatrixCached for the pool's
// parallelism.
func BenchmarkEvaluationMatrix1Worker(b *testing.B) {
	benchMatrix(b, 1, func(*testing.B, *memotable.Engine) {})
}

// BenchmarkExtensionSqrt regenerates the square-root memoization study
// (paper §4 future work).
func BenchmarkExtensionSqrt(b *testing.B) { benchExperiment(b, "sqrt-extension", memotable.Tiny) }

// BenchmarkExtensionRecip regenerates the reciprocal-cache baseline
// comparison (Oberman & Flynn, §1.1).
func BenchmarkExtensionRecip(b *testing.B) { benchExperiment(b, "recip-comparison", memotable.Tiny) }

// BenchmarkExtensionReuse regenerates the reuse-buffer comparison
// (Sodani & Sohi, §1.1).
func BenchmarkExtensionReuse(b *testing.B) { benchExperiment(b, "reuse-comparison", memotable.Tiny) }
