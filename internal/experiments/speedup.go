package experiments

import (
	"math"

	"memotable/internal/cpu"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
)

// SpeedupApps are the nine applications of the paper's speedup study
// (Tables 11–13).
var SpeedupApps = []string{
	"venhance", "vbrf", "vsqrt", "vslope", "vbpf",
	"vkmeans", "vspatial", "vgauss", "vgpwl",
}

// SpeedupCell is one application at one latency point: the paper's
// columns hit ratio, FE, SE and whole-application speedup. All four are
// measured from the cycle model (two-level cache hierarchy included), not
// assumed: FE is the enhanced classes' share of baseline cycles, SE the
// ratio of their baseline to enhanced cycles, Speedup the total-cycle
// ratio — which Amdahl's law then ties together.
type SpeedupCell struct {
	HitRatio float64
	FE       float64
	SE       float64
	Speedup  float64
}

// SpeedupRow is one application at the study's two latency points.
type SpeedupRow struct {
	Name       string
	Slow, Fast SpeedupCell // e.g. 13- and 39-cycle dividers
}

// SpeedupResult is a Table 11/12/13-shaped result.
type SpeedupResult struct {
	Title     string
	FastLabel string
	SlowLabel string
	Ops       []isa.Op
	Rows      []SpeedupRow
}

// planTable11 plans the fdiv-memoization speedups with 13- and 39-cycle
// dividers.
func planTable11(ctx *Context) ([]Demand, func() *SpeedupResult) {
	base := isa.FastFP()
	return planSpeedupStudy(ctx,
		"Table 11: speedup, fp division memoized",
		"13 cycles", "39 cycles",
		[]isa.Op{isa.OpFDiv},
		base.WithFPLatencies(3, 13), base.WithFPLatencies(3, 39))
}

// planTable12 plans the fmul-memoization speedups with 3- and 5-cycle
// multipliers.
func planTable12(ctx *Context) ([]Demand, func() *SpeedupResult) {
	base := isa.FastFP()
	return planSpeedupStudy(ctx,
		"Table 12: speedup, fp multiplication memoized",
		"3 cycles", "5 cycles",
		[]isa.Op{isa.OpFMul},
		base.WithFPLatencies(3, 13), base.WithFPLatencies(5, 13))
}

// planTable13 plans the combined fmul+fdiv speedups on the 3/13- and
// 5/39-cycle machines.
func planTable13(ctx *Context) ([]Demand, func() *SpeedupResult) {
	base := isa.FastFP()
	return planSpeedupStudy(ctx,
		"Table 13: speedup, fp multiplication and division memoized",
		"3/13 cycles", "5/39 cycles",
		[]isa.Op{isa.OpFMul, isa.OpFDiv},
		base.WithFPLatencies(3, 13), base.WithFPLatencies(5, 39))
}

// planSpeedupStudy plans each application over its inputs on four
// machines: baseline and memo-enhanced, at fast and slow FP latencies.
// All four price the application's one cycle tally, and the enhanced
// machines attach the units of its shared 32/4 table set (the sets
// table7 reads), so each application is one ordered demand that
// simulates nothing the other plans do not.
func planSpeedupStudy(ctx *Context, title, fastLabel, slowLabel string, ops []isa.Op,
	fast, slow isa.Processor) ([]Demand, func() *SpeedupResult) {

	type machine struct {
		tally  *cpu.Model
		tables *TableSet
	}
	ms := make([]machine, len(SpeedupApps))
	var demands []Demand
	for i, name := range SpeedupApps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		ms[i] = machine{
			tally:  f.Model(),
			tables: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, ops...),
		}
		demands = append(demands, f.Demands()...)
	}
	finish := func() *SpeedupResult {
		res := &SpeedupResult{
			Title: title, FastLabel: fastLabel, SlowLabel: slowLabel, Ops: ops,
			Rows: make([]SpeedupRow, len(SpeedupApps)),
		}
		for i, name := range SpeedupApps {
			units := ms[i].tables.Units(ops...)
			res.Rows[i] = SpeedupRow{
				Name: name,
				Fast: cellFrom(ms[i].tally, fast, units),
				Slow: cellFrom(ms[i].tally, slow, units),
			}
		}
		return res
	}
	return demands, finish
}

// cellFrom derives the paper's four columns from a tally priced on the
// baseline machine and on the machine enhanced with units.
func cellFrom(tally *cpu.Model, proc isa.Processor, units []*memo.Unit) SpeedupCell {
	base, enh := tally.On(proc), tally.On(proc, units...)
	var c SpeedupCell
	var ops []isa.Op
	var baseClass, enhClass uint64
	var hits, lookups uint64
	for _, u := range units {
		op := u.Table().Op()
		ops = append(ops, op)
		baseClass += base.Class[op]
		enhClass += enh.Class[op]
		st := u.Table().Stats()
		hits += st.Hits
		lookups += st.Lookups
	}
	c.FE = base.Fraction(ops...)
	if lookups > 0 {
		c.HitRatio = float64(hits) / float64(lookups)
	} else {
		c.HitRatio = math.NaN()
	}
	if enhClass > 0 {
		c.SE = float64(baseClass) / float64(enhClass)
	} else {
		c.SE = 1
	}
	if enh.Total > 0 {
		c.Speedup = float64(base.Total) / float64(enh.Total)
	} else {
		c.Speedup = 1
	}
	return c
}

// Average aggregates the rows (simple means, as the paper's bottom row).
func (r *SpeedupResult) Average() SpeedupRow {
	mean := func(get func(SpeedupRow) SpeedupCell) SpeedupCell {
		var hr, fe, se, sp []float64
		for _, row := range r.Rows {
			c := get(row)
			hr = append(hr, c.HitRatio)
			fe = append(fe, c.FE)
			se = append(se, c.SE)
			sp = append(sp, c.Speedup)
		}
		return SpeedupCell{
			HitRatio: meanIgnoringNaN(hr),
			FE:       meanIgnoringNaN(fe),
			SE:       meanIgnoringNaN(se),
			Speedup:  meanIgnoringNaN(sp),
		}
	}
	return SpeedupRow{
		Name: "average",
		Fast: mean(func(r SpeedupRow) SpeedupCell { return r.Fast }),
		Slow: mean(func(r SpeedupRow) SpeedupCell { return r.Slow }),
	}
}

// Result builds the study as a typed table in the paper's layout.
func (r *SpeedupResult) Result() *report.Result {
	res := report.NewTableResult(r.Title, "app", "hit ratio",
		"FE "+r.FastLabel, "SE", "Speedup",
		"FE "+r.SlowLabel, "SE ", "Speedup ")
	rows := append(append([]SpeedupRow(nil), r.Rows...), r.Average())
	for _, row := range rows {
		res.AddRow(report.Str(row.Name),
			report.RatioCell(row.Fast.HitRatio),
			report.FloatCell(row.Fast.FE, 3),
			report.FloatCell(row.Fast.SE, 2),
			report.FloatCell(row.Fast.Speedup, 2),
			report.FloatCell(row.Slow.FE, 3),
			report.FloatCell(row.Slow.SE, 2),
			report.FloatCell(row.Slow.Speedup, 2))
	}
	return res
}

// Render prints the study in the paper's layout.
func (r *SpeedupResult) Render() string { return report.Text(r.Result()) }

// Table1 builds the static processor latency table the paper opens with.
func Table1() *report.Result {
	res := report.NewTableResult("Table 1: cycle times of leading microprocessors",
		"processor", "multiplication", "division")
	for _, p := range isa.Table1Processors() {
		res.AddRow(report.Str(p.Name),
			report.Int(int64(p.Latency[isa.OpFMul])),
			report.Int(int64(p.Latency[isa.OpFDiv])))
	}
	return res
}

// planTable1 adapts the static table to the registry's plan shape: no
// demands, finish renders directly.
func planTable1(*Context) Plan {
	return Plan{Finish: func() *report.Result { return Table1() }}
}

func init() {
	speedupOps := []isa.Op{isa.OpFMul, isa.OpFDiv}
	Register(Experiment{
		Name:  "table1",
		Title: "Cycle times of leading microprocessors (static)",
		Ops:   speedupOps,
		Plan:  planTable1,
	})
	register("table11", "Speedup, fp division memoized (13/39-cycle dividers)",
		[]isa.Op{isa.OpFDiv}, planTable11)
	register("table12", "Speedup, fp multiplication memoized (3/5-cycle multipliers)",
		[]isa.Op{isa.OpFMul}, planTable12)
	register("table13", "Speedup, fp multiplication and division memoized",
		speedupOps, planTable13)
}
