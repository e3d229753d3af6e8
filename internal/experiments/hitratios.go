package experiments

import (
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/probe"
	"memotable/internal/report"
	"memotable/internal/scientific"
)

// HitRow is one application's hit ratios under two table configurations.
type HitRow struct {
	Name     string
	Small    map[isa.Op]float64 // 32-entry 4-way
	Infinite map[isa.Op]float64 // unbounded fully associative
}

// HitTable is a Table 5/6/7-shaped result.
type HitTable struct {
	Title string
	Rows  []HitRow
}

// ratioOps are the columns of Tables 5–7.
var ratioOps = []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv}

// Average computes the per-op column means, skipping '-' entries.
func (t *HitTable) Average() HitRow {
	avg := HitRow{Name: "average", Small: map[isa.Op]float64{}, Infinite: map[isa.Op]float64{}}
	for _, op := range ratioOps {
		var small, inf []float64
		for _, r := range t.Rows {
			small = append(small, r.Small[op])
			inf = append(inf, r.Infinite[op])
		}
		avg.Small[op] = meanIgnoringNaN(small)
		avg.Infinite[op] = meanIgnoringNaN(inf)
	}
	return avg
}

// Result builds the typed table in the paper's layout.
func (t *HitTable) Result() *report.Result {
	res := report.NewTableResult(t.Title, "application",
		"int mult", "fp mult", "fp div",
		"int mult∞", "fp mult∞", "fp div∞")
	rows := append(append([]HitRow(nil), t.Rows...), t.Average())
	for _, r := range rows {
		res.AddRow(report.Str(r.Name),
			report.RatioCell(r.Small[isa.OpIMul]),
			report.RatioCell(r.Small[isa.OpFMul]),
			report.RatioCell(r.Small[isa.OpFDiv]),
			report.RatioCell(r.Infinite[isa.OpIMul]),
			report.RatioCell(r.Infinite[isa.OpFMul]),
			report.RatioCell(r.Infinite[isa.OpFDiv]))
	}
	return res
}

// Render prints the table in the paper's layout.
func (t *HitTable) Render() string { return report.Text(t.Result()) }

// hitPair is one row's pair of table sets, filled by the replay pass.
type hitPair struct {
	small, inf *TableSet
}

// newHitPair takes the paper's basic 32/4 set and the infinite set from
// the feed.
func newHitPair(f *Feed) hitPair {
	return hitPair{
		small: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, ratioOps...),
		inf:   f.Tables(memo.Infinite(), memo.NonTrivialOnly, ratioOps...),
	}
}

// row reads the fed pair into a named HitRow.
func (p hitPair) row(name string) HitRow {
	r := HitRow{Name: name, Small: map[isa.Op]float64{}, Infinite: map[isa.Op]float64{}}
	for _, op := range ratioOps {
		r.Small[op] = p.small.HitRatio(op)
		r.Infinite[op] = p.inf.HitRatio(op)
	}
	return r
}

// planSuiteHit plans one list of kernels against the paper's basic 32/4
// configuration and the infinite table: one single-workload demand per
// kernel, both table sets fed from the same fused replay.
func planSuiteHit(ctx *Context, title string, names []string, runs []func(*probe.Probe)) ([]Demand, func() *HitTable) {
	pairs := make([]hitPair, len(runs))
	var demands []Demand
	for i := range runs {
		f := ctx.Feed(ctx.KernelWorkload(names[i], runs[i]))
		pairs[i] = newHitPair(f)
		demands = append(demands, f.Demands()...)
	}
	finish := func() *HitTable {
		t := &HitTable{Title: title, Rows: make([]HitRow, len(runs))}
		for i := range runs {
			t.Rows[i] = pairs[i].row(names[i])
		}
		return t
	}
	return demands, finish
}

// kernelSuite flattens a kernel list into parallel name/run slices.
func kernelSuite(ks []scientific.Kernel) (names []string, runs []func(*probe.Probe)) {
	names = make([]string, len(ks))
	runs = make([]func(*probe.Probe), len(ks))
	for i, k := range ks {
		names[i], runs[i] = k.Name, k.Run
	}
	return names, runs
}

// planTable5 plans "Hit ratios for the Perfect benchmarks" (32/4 vs
// infinite, non-trivial operations only).
func planTable5(ctx *Context) ([]Demand, func() *HitTable) {
	names, runs := kernelSuite(scientific.Perfect())
	return planSuiteHit(ctx, "Table 5: hit ratios, Perfect benchmarks", names, runs)
}

// planTable6 plans "Hit ratios for the SPEC CFP95 benchmarks".
func planTable6(ctx *Context) ([]Demand, func() *HitTable) {
	names, runs := kernelSuite(scientific.SpecCFP95())
	return planSuiteHit(ctx, "Table 6: hit ratios, SPEC CFP95 benchmarks", names, runs)
}

// mmTable7Apps lists the seventeen applications of Table 7 in paper
// order (vsqrt appears in Table 4 and the speedup study but not in
// Table 7).
var mmTable7Apps = []string{
	"vdiff", "vcost", "vgauss", "vspatial", "vslope", "vgef", "vdetilt",
	"vwarp", "venhance", "vrect2pol", "vmpp", "vbrf", "vbpf", "vsurf",
	"vgpwl", "venhpatch", "vkmeans",
}

// planTable7 plans "Hit ratios for Multi-Media applications". Each
// application aggregates one table-set pair over its default inputs
// (the paper used 8–14 per application), so its demand orders the
// input workloads as one sequence.
func planTable7(ctx *Context) ([]Demand, func() *HitTable) {
	pairs := make([]hitPair, len(mmTable7Apps))
	var demands []Demand
	for i, name := range mmTable7Apps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		pairs[i] = newHitPair(f)
		demands = append(demands, f.Demands()...)
	}
	finish := func() *HitTable {
		t := &HitTable{
			Title: "Table 7: hit ratios, Multi-Media applications",
			Rows:  make([]HitRow, len(mmTable7Apps)),
		}
		for i, name := range mmTable7Apps {
			t.Rows[i] = pairs[i].row(name)
		}
		return t
	}
	return demands, finish
}

// Table10Result compares full-value and mantissa-only tagging (Table 10):
// suite-average fp hit ratios for both schemes at 32/4.
type Table10Result struct {
	// [suite][op][scheme]: suites are Perfect and Multi-Media; schemes
	// are full then mantissa-only.
	PerfectFull, PerfectMant map[isa.Op]float64
	MMFull, MMMant           map[isa.Op]float64
}

// planTable10 plans the mantissa-only comparison. The suite aggregation
// is stateful — every workload of a suite feeds one table pair in order
// — so each suite is a single ordered demand.
func planTable10(ctx *Context) ([]Demand, func() *Table10Result) {
	mantCfg := memo.Paper32x4()
	mantCfg.MantissaOnly = true
	fpOps := []isa.Op{isa.OpFMul, isa.OpFDiv}
	type suite struct {
		full, mant *TableSet
	}
	newSuite := func(f *Feed) suite {
		return suite{
			full: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, fpOps...),
			mant: f.Tables(mantCfg, memo.NonTrivialOnly, fpOps...),
		}
	}
	var perfWs, mmWs []Workload
	for _, k := range scientific.Perfect() {
		perfWs = append(perfWs, ctx.KernelWorkload(k.Name, k.Run))
	}
	for _, name := range mmTable7Apps {
		app := ctx.App(name)
		mmWs = append(mmWs, ctx.AppWorkload(app, app.Inputs[0]))
	}
	perfFeed, mmFeed := ctx.Feed(perfWs...), ctx.Feed(mmWs...)
	perf, mm := newSuite(perfFeed), newSuite(mmFeed)
	demands := append(perfFeed.Demands(), mmFeed.Demands()...)
	read := func(s suite) (full, mant map[isa.Op]float64) {
		full = map[isa.Op]float64{}
		mant = map[isa.Op]float64{}
		for _, op := range fpOps {
			full[op] = s.full.HitRatio(op)
			mant[op] = s.mant.HitRatio(op)
		}
		return full, mant
	}
	finish := func() *Table10Result {
		res := &Table10Result{}
		res.PerfectFull, res.PerfectMant = read(perf)
		res.MMFull, res.MMMant = read(mm)
		return res
	}
	return demands, finish
}

// Result builds Table 10 as a typed table.
func (r *Table10Result) Result() *report.Result {
	res := report.NewTableResult("Table 10: full value vs mantissa-only tags (32/4 averages)",
		"suite", "fp mult full", "fp mult mant", "fp div full", "fp div mant")
	res.AddRow(report.Str("Perfect"),
		report.RatioCell(r.PerfectFull[isa.OpFMul]), report.RatioCell(r.PerfectMant[isa.OpFMul]),
		report.RatioCell(r.PerfectFull[isa.OpFDiv]), report.RatioCell(r.PerfectMant[isa.OpFDiv]))
	res.AddRow(report.Str("Multi-Media"),
		report.RatioCell(r.MMFull[isa.OpFMul]), report.RatioCell(r.MMMant[isa.OpFMul]),
		report.RatioCell(r.MMFull[isa.OpFDiv]), report.RatioCell(r.MMMant[isa.OpFDiv]))
	return res
}

// Render prints Table 10.
func (r *Table10Result) Render() string { return report.Text(r.Result()) }

func init() {
	register("table5", "Hit ratios, Perfect benchmarks (32/4 vs infinite)", ratioOps, planTable5)
	register("table6", "Hit ratios, SPEC CFP95 benchmarks (32/4 vs infinite)", ratioOps, planTable6)
	register("table7", "Hit ratios, Multi-Media applications (32/4 vs infinite)", ratioOps, planTable7)
	register("table10", "Full-value vs mantissa-only tags (32/4 suite averages)",
		[]isa.Op{isa.OpFMul, isa.OpFDiv}, planTable10)
}
