package experiments

import (
	"math"
	"os"
	"strings"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/probe"
	"memotable/internal/report"
	"memotable/internal/trace"
)

// tEng is shared across the driver tests: results are bit-identical at
// any worker count, so running them on one engine exercises the pool
// under -race.
var tEng = engine.New(4)

// TestMain closes tEng after the package's tests.
func TestMain(m *testing.M) {
	code := m.Run()
	_ = tEng.Close()
	os.Exit(code)
}

func TestTableSetRoutesMemoizableOps(t *testing.T) {
	ts := NewTableSet(memo.Paper32x4(), memo.NonTrivialOnly)
	p := probe.New(ts)
	p.FDiv(7, 3)
	p.FDiv(7, 3)
	p.FAdd(1, 2) // not memoizable: must be ignored
	if hr := ts.HitRatio(isa.OpFDiv); hr != 0.5 {
		t.Fatalf("fdiv ratio %g, want 0.5", hr)
	}
	if !math.IsNaN(ts.HitRatio(isa.OpFMul)) {
		t.Fatal("unused class must report NaN ('-')")
	}
}

func TestMeasure(t *testing.T) {
	run := func(p *probe.Probe, _ *imaging.AddressSpace) {
		for i := 0; i < 10; i++ {
			p.FMul(2, 3)
			p.Load(0x100)
		}
	}
	ts, c := Measure(run, memo.Paper32x4(), memo.NonTrivialOnly)
	if hr := ts.HitRatio(isa.OpFMul); hr != 0.9 {
		t.Fatalf("ratio %g, want 0.9", hr)
	}
	if c.Of(isa.OpLoad) != 10 {
		t.Fatalf("loads %d", c.Of(isa.OpLoad))
	}
}

func TestMeanIgnoringNaN(t *testing.T) {
	if v := meanIgnoringNaN([]float64{1, math.NaN(), 3}); v != 2 {
		t.Fatalf("mean = %g", v)
	}
	if !math.IsNaN(meanIgnoringNaN([]float64{math.NaN()})) {
		t.Fatal("all-NaN mean must be NaN")
	}
}

func TestTable1Static(t *testing.T) {
	out := report.Text(Table1())
	for _, name := range []string{"Pentium Pro", "Alpha 21164", "MIPS R10000",
		"PPC 604e", "UltraSparc-II", "PA 8000"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
	if !strings.Contains(out, "39") || !strings.Contains(out, "22") {
		t.Error("Table 1 missing latencies")
	}
}

func TestTables5And6SuiteShape(t *testing.T) {
	t5 := runPlan(tEng, Tiny, planTable5)
	if len(t5.Rows) != 9 {
		t.Fatalf("Table 5 has %d rows", len(t5.Rows))
	}
	t6 := runPlan(tEng, Tiny, planTable6)
	if len(t6.Rows) != 10 {
		t.Fatalf("Table 6 has %d rows", len(t6.Rows))
	}
	for _, tbl := range []*HitTable{t5, t6} {
		avg := tbl.Average()
		// The suites' core shape: fp reuse potential is large in an
		// unbounded table but mostly out of reach of 32 entries.
		for _, op := range []isa.Op{isa.OpFMul, isa.OpFDiv} {
			if avg.Infinite[op] <= avg.Small[op] {
				t.Errorf("%s: %v infinite avg %.2f <= small avg %.2f",
					tbl.Title, op, avg.Infinite[op], avg.Small[op])
			}
		}
		if avg.Small[isa.OpFMul] > 0.35 {
			t.Errorf("%s: fmul small avg %.2f too high for a scientific suite",
				tbl.Title, avg.Small[isa.OpFMul])
		}
		if r := tbl.Render(); !strings.Contains(r, "average") {
			t.Error("render missing average row")
		}
	}
	// QCD is the all-zero row (Table 5).
	for _, r := range t5.Rows {
		if r.Name == "QCD" && (r.Small[isa.OpFMul] > 0.05 || r.Small[isa.OpIMul] > 0.05) {
			t.Errorf("QCD shows reuse: %+v", r.Small)
		}
	}
}

func TestTable7MMShape(t *testing.T) {
	t7 := runPlan(tEng, Tiny, planTable7)
	if len(t7.Rows) != 17 {
		t.Fatalf("Table 7 has %d rows", len(t7.Rows))
	}
	avg := t7.Average()
	// The paper's headline: MM applications show substantial reuse in a
	// 32-entry table — far above the scientific suites — and very large
	// unbounded potential.
	if avg.Small[isa.OpFMul] < 0.15 || avg.Small[isa.OpFDiv] < 0.25 {
		t.Errorf("MM small averages too low: fmul %.2f fdiv %.2f",
			avg.Small[isa.OpFMul], avg.Small[isa.OpFDiv])
	}
	if avg.Infinite[isa.OpFMul] < 0.6 || avg.Infinite[isa.OpFDiv] < 0.6 {
		t.Errorf("MM infinite averages too low: %.2f %.2f",
			avg.Infinite[isa.OpFMul], avg.Infinite[isa.OpFDiv])
	}
	// Table 7 '-' pattern spot checks.
	for _, r := range t7.Rows {
		switch r.Name {
		case "vdetilt":
			if !math.IsNaN(r.Small[isa.OpIMul]) || !math.IsNaN(r.Small[isa.OpFDiv]) {
				t.Error("vdetilt must show '-' for imul and fdiv")
			}
		case "vdiff":
			if math.IsNaN(r.Small[isa.OpIMul]) || !math.IsNaN(r.Small[isa.OpFDiv]) {
				t.Error("vdiff profile wrong")
			}
		}
	}
}

func TestMMBeatsScientificAt32(t *testing.T) {
	mm := runPlan(tEng, Tiny, planTable7).Average()
	sci := runPlan(tEng, Tiny, planTable5).Average()
	if mm.Small[isa.OpFMul] <= sci.Small[isa.OpFMul] {
		t.Errorf("MM fmul %.2f not above Perfect %.2f",
			mm.Small[isa.OpFMul], sci.Small[isa.OpFMul])
	}
	if mm.Small[isa.OpFDiv] <= sci.Small[isa.OpFDiv] {
		t.Errorf("MM fdiv %.2f not above Perfect %.2f",
			mm.Small[isa.OpFDiv], sci.Small[isa.OpFDiv])
	}
}

func TestTable8AndFigure2(t *testing.T) {
	fig := runPlan(tEng, Tiny, planFigure2)
	if len(fig.Points) == 0 {
		t.Fatal("no Figure 2 points")
	}
	if len(fig.Fits) != 4 {
		t.Fatalf("%d fits, want 4", len(fig.Fits))
	}
	for _, f := range fig.Fits {
		if f.Points < 50 {
			t.Errorf("%s: only %d points", f.Label, f.Points)
		}
		// The paper's relation: hit ratio falls with entropy, roughly 5%
		// per bit. Accept any clearly negative slope in a sane band.
		if math.IsNaN(f.Slope) || f.Slope > -0.01 || f.Slope < -0.25 {
			t.Errorf("%s: slope %.3f outside plausible band", f.Label, f.Slope)
		}
	}
	if r := fig.Render(); !strings.Contains(r, "slope") {
		t.Error("figure render missing slope column")
	}
}

func TestTable9PolicyOrdering(t *testing.T) {
	t9 := runPlan(tEng, Tiny, planTable9)
	if len(t9.Rows) != 8 {
		t.Fatalf("Table 9 rows = %d", len(t9.Rows))
	}
	avg := t9.Average()
	for _, op := range ratioOps {
		c := avg.Cell[op]
		if math.IsNaN(c.Integrated) {
			continue
		}
		// Integrated detection dominates the other policies on average
		// (trivial operations count as hits and never pollute the table).
		if c.Integrated < c.Non-1e-9 {
			t.Errorf("%v: integrated %.3f below non-trivial-only %.3f", op, c.Integrated, c.Non)
		}
	}
	// vdetilt has no imul or fdiv columns.
	for _, r := range t9.Rows {
		if r.Name == "vdetilt" && !math.IsNaN(r.Cell[isa.OpIMul].All) {
			t.Error("vdetilt imul cell should be '-'")
		}
	}
	if s := t9.Render(); !strings.Contains(s, "intgr") {
		t.Error("render missing policy columns")
	}
}

func TestTable10MantissaRaisesRatios(t *testing.T) {
	t10 := runPlan(tEng, Tiny, planTable10)
	// Mantissa-only tags can only merge entries, so the suite averages
	// must not drop (the paper: "raises the hit ratios, albeit not by
	// much").
	for _, pair := range [][2]float64{
		{t10.MMFull[isa.OpFMul], t10.MMMant[isa.OpFMul]},
		{t10.MMFull[isa.OpFDiv], t10.MMMant[isa.OpFDiv]},
		{t10.PerfectFull[isa.OpFMul], t10.PerfectMant[isa.OpFMul]},
	} {
		if pair[1] < pair[0]-0.02 {
			t.Errorf("mantissa tagging reduced a ratio: %.3f -> %.3f", pair[0], pair[1])
		}
	}
	if s := t10.Render(); !strings.Contains(s, "Multi-Media") {
		t.Error("render incomplete")
	}
}

func TestFigure3MonotoneAndFlattening(t *testing.T) {
	fig := runPlan(tEng, Tiny, planFigure3)
	if len(fig.Points) != len(Figure3Sizes) {
		t.Fatalf("points = %d", len(fig.Points))
	}
	for i := 1; i < len(fig.Points); i++ {
		if fig.Points[i].FDivMean < fig.Points[i-1].FDivMean-0.03 {
			t.Errorf("fdiv mean dropped at %d entries", fig.Points[i].X)
		}
		if fig.Points[i].FMulMean < fig.Points[i-1].FMulMean-0.03 {
			t.Errorf("fmul mean dropped at %d entries", fig.Points[i].X)
		}
	}
	// Flattening: the last doubling buys almost nothing.
	n := len(fig.Points)
	if gain := fig.Points[n-1].FDivMean - fig.Points[n-2].FDivMean; gain > 0.1 {
		t.Errorf("no flattening: last doubling gained %.2f", gain)
	}
	if s := fig.Render(); !strings.Contains(s, "8192") {
		t.Error("render missing sizes")
	}
}

func TestFigure4AssociativityShape(t *testing.T) {
	fig := runPlan(tEng, Tiny, planFigure4)
	if len(fig.Points) != 4 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	direct := fig.Points[0]
	way4 := fig.Points[2]
	// Conflict misses make direct-mapped clearly worse than 4-way...
	if way4.FDivMean <= direct.FDivMean && way4.FMulMean <= direct.FMulMean {
		t.Error("associativity shows no benefit over direct mapped")
	}
	// ...while 8-way adds almost nothing over 4-way.
	way8 := fig.Points[3]
	if way8.FDivMean-way4.FDivMean > 0.1 {
		t.Errorf("8-way gained %.2f over 4-way; paper: negligible",
			way8.FDivMean-way4.FDivMean)
	}
}

func TestSpeedupTables(t *testing.T) {
	t11 := runPlan(tEng, Tiny, planTable11)
	t12 := runPlan(tEng, Tiny, planTable12)
	t13 := runPlan(tEng, Tiny, planTable13)
	for _, tbl := range []*SpeedupResult{t11, t12, t13} {
		if len(tbl.Rows) != 9 {
			t.Fatalf("%s: %d rows", tbl.Title, len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			for _, c := range []SpeedupCell{r.Fast, r.Slow} {
				if c.Speedup < 1-1e-9 {
					t.Errorf("%s/%s: speedup %.3f < 1 (failed lookups are free)",
						tbl.Title, r.Name, c.Speedup)
				}
				if c.FE < 0 || c.FE > 1 {
					t.Errorf("%s/%s: FE %.3f", tbl.Title, r.Name, c.FE)
				}
				if c.SE < 1-1e-9 {
					t.Errorf("%s/%s: SE %.3f < 1", tbl.Title, r.Name, c.SE)
				}
			}
			// Slower units leave more to save: speedup grows with latency.
			if r.Slow.Speedup < r.Fast.Speedup-1e-9 {
				t.Errorf("%s/%s: slow-machine speedup %.3f below fast %.3f",
					tbl.Title, r.Name, r.Slow.Speedup, r.Fast.Speedup)
			}
		}
	}
	// Division memoization outpaces multiplication memoization (§3.3).
	if t11.Average().Slow.Speedup <= t12.Average().Slow.Speedup {
		t.Errorf("div speedup %.3f not above mul speedup %.3f",
			t11.Average().Slow.Speedup, t12.Average().Slow.Speedup)
	}
	// Combining both classes beats either alone on the slow machine.
	if t13.Average().Slow.Speedup < t11.Average().Slow.Speedup-1e-9 {
		t.Errorf("combined %.3f below div-only %.3f",
			t13.Average().Slow.Speedup, t11.Average().Slow.Speedup)
	}
	// vbrf is the known near-1.0 row of Table 11.
	for _, r := range t11.Rows {
		if r.Name == "vbrf" && r.Slow.Speedup > 1.05 {
			t.Errorf("vbrf fdiv speedup %.3f; paper: ~1.00", r.Slow.Speedup)
		}
	}
	if s := t13.Render(); !strings.Contains(s, "average") {
		t.Error("speedup render missing average")
	}
}

func TestAmdahlConsistency(t *testing.T) {
	// The measured whole-application speedup must equal Amdahl's
	// prediction from the measured FE and SE (they are defined from the
	// same cycle accounting).
	t11 := runPlan(tEng, Tiny, planTable11)
	for _, r := range t11.Rows {
		for _, c := range []SpeedupCell{r.Fast, r.Slow} {
			if c.FE == 0 {
				continue
			}
			pred := 1 / ((1 - c.FE) + c.FE/c.SE)
			if math.Abs(pred-c.Speedup) > 0.02*c.Speedup {
				t.Errorf("%s: Amdahl predicts %.3f, measured %.3f", r.Name, pred, c.Speedup)
			}
		}
	}
}

func TestReplayFansOut(t *testing.T) {
	a := NewTableSet(memo.Paper32x4(), memo.NonTrivialOnly)
	b := NewTableSet(memo.Infinite(), memo.NonTrivialOnly)
	eng := engine.Serial()
	capture := captureOf(func(p *probe.Probe, _ *imaging.AddressSpace) { p.FMul(2, 3) })
	if _, err := eng.ReplayAll("test|fanout", capture, []trace.Sink{a, b}); err != nil {
		t.Fatal(err)
	}
	if a.Unit(isa.OpFMul).TotalOps() != 1 || b.Unit(isa.OpFMul).TotalOps() != 1 {
		t.Fatal("fused replay did not fan out")
	}
	// Both sinks were fed by one run of the workload.
	if eng.Stats().Captures != 1 || eng.Stats().Replays != 1 {
		t.Fatalf("captures=%d replays=%d, want 1 and 1", eng.Stats().Captures, eng.Stats().Replays)
	}
	var _ trace.Sink = a // TableSet is a Sink
}

func TestParallelMatchesSerial(t *testing.T) {
	// The engine's whole contract: rendered output is bit-identical at any
	// worker count. (The root golden tests pin every experiment; this is
	// the in-package witness on one sweep.)
	serial := runPlan(engine.Serial(), Tiny, planFigure4).Render()
	parallel := runPlan(engine.New(8), Tiny, planFigure4).Render()
	if serial != parallel {
		t.Fatalf("parallel output diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestExtensionSqrt(t *testing.T) {
	res := ExtensionSqrt(tEng, Tiny)
	if len(res.Rows) != len(SqrtApps) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(SqrtApps))
	}
	for _, r := range res.Rows {
		if r.Speedup < 1-1e-9 {
			t.Errorf("%s: sqrt memoization slowed the machine: %.3f", r.Name, r.Speedup)
		}
		// vsqrt's per-pixel roots of quantized data reuse at the level the
		// paper reports for its fp stream (~.4-.5).
		if r.Name == "vsqrt" && r.HitRatio < 0.25 {
			t.Errorf("vsqrt: sqrt hit ratio %.2f, want >= .25", r.HitRatio)
		}
	}
	if s := res.Render(); !strings.Contains(s, "average") {
		t.Error("render incomplete")
	}
}

func TestExtensionRecip(t *testing.T) {
	res := ExtensionRecip(tEng, Tiny)
	if len(res.Rows) == 0 {
		t.Fatal("no comparison rows")
	}
	higherRecip := 0
	for _, r := range res.Rows {
		// The reciprocal cache keys on the divisor alone, so its hit
		// ratio must not fall below the full-pair MEMO-TABLE's by more
		// than noise on any application.
		if r.RecipHit < r.MemoHit-0.05 {
			t.Errorf("%s: recip hit %.2f far below memo hit %.2f", r.Name, r.RecipHit, r.MemoHit)
		}
		if r.RecipHit > r.MemoHit {
			higherRecip++
		}
	}
	if higherRecip == 0 {
		t.Error("divisor-only keying never beat full-pair keying; expected on some apps")
	}
	if s := res.Render(); !strings.Contains(s, "recip") {
		t.Error("render incomplete")
	}
}

func TestReuseCompare(t *testing.T) {
	r := ReuseCompare(tEng, Tiny)
	// The MEMO-TABLE is address-blind: unrolling must not reduce its hit
	// ratio.
	if r.UnrolledMemo < r.RolledMemo-0.02 {
		t.Errorf("memo ratio fell under unrolling: %.2f -> %.2f",
			r.RolledMemo, r.UnrolledMemo)
	}
	// The PC-keyed buffer fragments its entries across the unrolled
	// bodies: its ratio must not rise, and the MEMO-TABLE must beat it in
	// the unrolled compilation (§1.1's second argument).
	if r.UnrolledRBOnly > r.RolledRBOnly+0.02 {
		t.Errorf("RB ratio rose under unrolling: %.2f -> %.2f",
			r.RolledRBOnly, r.UnrolledRBOnly)
	}
	if r.UnrolledMemo <= r.UnrolledRB {
		t.Errorf("memo %.2f did not beat the reuse buffer %.2f under unrolling",
			r.UnrolledMemo, r.UnrolledRB)
	}
	// Restricting the RB to multi-cycle classes must not hurt the
	// multiply ratio (§1.1's first argument).
	if r.RolledRBOnly < r.RolledRB-0.02 || r.UnrolledRBOnly < r.UnrolledRB-0.02 {
		t.Error("class-restricted RB below the unrestricted one")
	}
	if s := r.Render(); !strings.Contains(s, "unrolled") {
		t.Error("render incomplete")
	}
}
