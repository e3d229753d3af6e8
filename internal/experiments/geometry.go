package experiments

import (
	"math"

	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
	"memotable/internal/stats"
)

// GeometryApps are the five sample applications of Figures 3 and 4.
var GeometryApps = []string{"vcost", "venhance", "vgpwl", "vspatial", "vsurf"}

// GeometryPoint is one x position of a geometry sweep: the mean and
// min/max across the sample applications, for fp multiplication and
// division.
type GeometryPoint struct {
	X                          int // entries (Fig. 3) or ways (Fig. 4)
	FMulMean, FMulMin, FMulMax float64
	FDivMean, FDivMin, FDivMax float64
}

// GeometryResult is a Figure 3 or Figure 4 sweep.
type GeometryResult struct {
	Title  string
	XName  string
	Points []GeometryPoint
}

// Figure3Sizes are the table sizes swept (associativity fixed at 4); the
// paper sweeps 8 to 8192 entries.
var Figure3Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// figure3Cfgs builds the size sweep's configurations.
func figure3Cfgs() []memo.Config {
	cfgs := make([]memo.Config, len(Figure3Sizes))
	for i, n := range Figure3Sizes {
		ways := 4
		if n < 4 {
			ways = n
		}
		cfgs[i] = memo.Config{Entries: n, Ways: ways}
	}
	return cfgs
}

// planFigure3 plans the hit ratio vs table size sweep (set size 4).
func planFigure3(ctx *Context) ([]Demand, func() *GeometryResult) {
	demands, finish := planSweep(ctx, "Figure 3: hit ratio vs LUT size (assoc 4)",
		"entries", figure3Cfgs())
	return demands, func() *GeometryResult {
		res := finish()
		for i := range res.Points {
			res.Points[i].X = Figure3Sizes[i]
		}
		return res
	}
}

// Figure4Ways are the associativities swept at 32 entries.
var Figure4Ways = []int{1, 2, 4, 8}

// planFigure4 plans the hit ratio vs associativity sweep (32 entries).
func planFigure4(ctx *Context) ([]Demand, func() *GeometryResult) {
	cfgs := make([]memo.Config, len(Figure4Ways))
	for i, w := range Figure4Ways {
		cfgs[i] = memo.Config{Entries: 32, Ways: w}
	}
	demands, finish := planSweep(ctx, "Figure 4: hit ratio vs associativity (32 entries)",
		"ways", cfgs)
	return demands, func() *GeometryResult {
		res := finish()
		for i := range res.Points {
			res.Points[i].X = Figure4Ways[i]
		}
		return res
	}
}

// planSweep plans the five sample applications across all
// configurations: one TableSet per (app, config), shared across that
// app's inputs (the paper's averages are across the applications at
// each size), so each app is one ordered demand whose fused replays
// feed every configuration's set at once. The 32/4 point is table7's
// set, and figure3 and figure4 share it too.
func planSweep(ctx *Context, title, xName string, cfgs []memo.Config) ([]Demand, func() *GeometryResult) {
	perApp := make([][]*TableSet, len(GeometryApps))
	var demands []Demand
	for a, name := range GeometryApps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		sets := make([]*TableSet, len(cfgs))
		for i, cfg := range cfgs {
			sets[i] = f.Tables(cfg, memo.NonTrivialOnly, isa.OpFMul, isa.OpFDiv)
		}
		perApp[a] = sets
		demands = append(demands, f.Demands()...)
	}
	finish := func() *GeometryResult {
		res := &GeometryResult{Title: title, XName: xName}
		for i := range cfgs {
			var fmuls, fdivs []float64
			for a := range GeometryApps {
				if v := perApp[a][i].HitRatio(isa.OpFMul); !math.IsNaN(v) {
					fmuls = append(fmuls, v)
				}
				if v := perApp[a][i].HitRatio(isa.OpFDiv); !math.IsNaN(v) {
					fdivs = append(fdivs, v)
				}
			}
			pt := GeometryPoint{}
			pt.FMulMean = stats.Mean(fmuls)
			pt.FMulMin, pt.FMulMax = stats.MinMax(fmuls)
			pt.FDivMean = stats.Mean(fdivs)
			pt.FDivMin, pt.FDivMax = stats.MinMax(fdivs)
			res.Points = append(res.Points, pt)
		}
		return res
	}
	return demands, finish
}

// Result builds the sweep as a typed table (the paper renders these
// figures as series tables; the per-point rows are the series' samples).
func (r *GeometryResult) Result() *report.Result {
	res := report.NewTableResult(r.Title, r.XName,
		"fmul mean", "fmul min", "fmul max",
		"fdiv mean", "fdiv min", "fdiv max")
	for _, pt := range r.Points {
		res.AddRow(report.Int(int64(pt.X)),
			report.RatioCell(pt.FMulMean), report.RatioCell(pt.FMulMin), report.RatioCell(pt.FMulMax),
			report.RatioCell(pt.FDivMean), report.RatioCell(pt.FDivMin), report.RatioCell(pt.FDivMax))
	}
	return res
}

// Render prints the sweep as a series table.
func (r *GeometryResult) Render() string { return report.Text(r.Result()) }

func init() {
	fpOps := []isa.Op{isa.OpFMul, isa.OpFDiv}
	register("figure3", "Hit ratio vs LUT size, 8-8192 entries at 4-way", fpOps, planFigure3)
	register("figure4", "Hit ratio vs associativity, 1-8 ways at 32 entries", fpOps, planFigure4)
}
