package experiments

import (
	"fmt"
	"math"

	"memotable/internal/fitting"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
	"memotable/internal/workloads"
)

// Table8Row describes one input image: geometry, entropies and the mean
// hit ratios of the applications run over it.
type Table8Row struct {
	Name        string
	Size        string
	Kind        string
	Bands       int
	EntropyFull float64 // NaN for FLOAT inputs, as in the paper
	Entropy16   float64
	Entropy8    float64
	IMul        float64
	FMul        float64
	FDiv        float64
}

// Table8Result is the full image table.
type Table8Result struct {
	Rows []Table8Row
	// Points carries the per-(application, image) samples Figure 2 plots.
	Points []Fig2Point
}

// Fig2Point is one (application, image) hit-ratio sample with the image's
// entropies.
type Fig2Point struct {
	App, Image  string
	EntropyFull float64
	Entropy8    float64
	FMulRatio   float64 // NaN when the class is absent
	FDivRatio   float64
}

// planTable8 plans every Table 7 application over every catalog image it
// accepts: one single-workload demand per (application, image) cell,
// each feeding one 32/4 table set. The entropy-measurement copies are
// decimated here, in the serial plan phase, so the entropies are on hand
// when finish runs (the copies are detached — entropy needs values, not
// addresses).
func planTable8(ctx *Context) ([]Demand, func() *Table8Result) {
	apps := make([]workloads.App, 0, len(mmTable7Apps))
	for _, name := range mmTable7Apps {
		apps = append(apps, ctx.App(name))
	}
	catalog := imaging.Catalog()
	entImgs := make([]*imaging.Image, len(catalog))
	for ci, in := range catalog {
		entImgs[ci] = in.Image.Decimate(ctx.MaxDim())
	}

	type cell struct {
		app workloads.App
		ts  *TableSet
	}
	cells := make([][]cell, len(catalog))
	var demands []Demand
	for ci, in := range catalog {
		for _, app := range apps {
			if !accepts(app, in.Name) {
				continue
			}
			f := ctx.Feed(ctx.AppWorkload(app, in.Name))
			ts := f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, ratioOps...)
			cells[ci] = append(cells[ci], cell{app: app, ts: ts})
			demands = append(demands, f.Demands()...)
		}
	}

	finish := func() *Table8Result {
		res := &Table8Result{}
		rows := make([]Table8Row, len(catalog))
		points := make([][]Fig2Point, len(catalog))
		ctx.Eng.Map(len(catalog), func(ci int) {
			in := catalog[ci]
			img := entImgs[ci]
			var eFull, e16, e8 float64
			if in.Image.Kind == imaging.Float {
				eFull, e16, e8 = math.NaN(), math.NaN(), math.NaN()
			} else {
				eFull, e16, e8 = img.Entropy(), img.WindowEntropy(16), img.WindowEntropy(8)
			}
			var imuls, fmuls, fdivs []float64
			for _, c := range cells[ci] {
				im, fm, fd := c.ts.HitRatio(isa.OpIMul), c.ts.HitRatio(isa.OpFMul), c.ts.HitRatio(isa.OpFDiv)
				imuls = append(imuls, im)
				fmuls = append(fmuls, fm)
				fdivs = append(fdivs, fd)
				points[ci] = append(points[ci], Fig2Point{
					App: c.app.Name, Image: in.Name,
					EntropyFull: eFull, Entropy8: e8,
					FMulRatio: fm, FDivRatio: fd,
				})
			}
			rows[ci] = Table8Row{
				Name:        in.Name,
				Size:        fmt.Sprintf("%dx%d", in.Image.W, in.Image.H),
				Kind:        in.Image.Kind.String(),
				Bands:       in.Image.Bands,
				EntropyFull: eFull, Entropy16: e16, Entropy8: e8,
				IMul: meanIgnoringNaN(imuls),
				FMul: meanIgnoringNaN(fmuls),
				FDiv: meanIgnoringNaN(fdivs),
			}
		})
		res.Rows = rows
		for _, ps := range points {
			res.Points = append(res.Points, ps...)
		}
		return res
	}
	return demands, finish
}

// accepts reports whether the application's default input list includes
// the image.
func accepts(app workloads.App, input string) bool {
	for _, n := range app.Inputs {
		if n == input {
			return true
		}
	}
	return false
}

// Result builds Table 8 as a typed table.
func (r *Table8Result) Result() *report.Result {
	res := report.NewTableResult("Table 8: input images, entropies and mean hit ratios",
		"image", "size", "type", "bands", "full", "16x16", "8x8",
		"imul", "fmul", "fdiv")
	for _, row := range r.Rows {
		res.AddRow(report.Str(row.Name), report.Str(row.Size), report.Str(row.Kind),
			report.Int(int64(row.Bands)),
			report.FixedCell(row.EntropyFull, 2),
			report.FixedCell(row.Entropy16, 2),
			report.FixedCell(row.Entropy8, 2),
			report.RatioCell(row.IMul), report.RatioCell(row.FMul), report.RatioCell(row.FDiv))
	}
	return res
}

// Render prints Table 8.
func (r *Table8Result) Render() string { return report.Text(r.Result()) }

// Fig2Fit is one fitted best-fit line of Figure 2: hit ratio as a linear
// function of entropy, via Marquardt–Levenberg (as the paper fitted).
type Fig2Fit struct {
	Label     string
	Intercept float64
	Slope     float64 // hit-ratio change per bit of entropy
	Points    int
}

// Figure2Result holds the four panels of Figure 2: fp div and fp mult
// ratios against 8x8-window entropy and whole-image entropy.
type Figure2Result struct {
	Points []Fig2Point
	Fits   []Fig2Fit
}

// planFigure2 plans the hit-ratio/entropy relation: Table 8's plan, with
// the line fits computed in finish. Planned on the same Context as
// table8 it reads table8's cells and subscribes no sinks of its own,
// while its demands still name every workload it depends on. The paper
// observes roughly a 5% hit-ratio decrease per added bit of entropy.
func planFigure2(ctx *Context) ([]Demand, func() *Figure2Result) {
	demands, t8finish := planTable8(ctx)
	finish := func() *Figure2Result {
		t8 := t8finish()
		res := &Figure2Result{Points: t8.Points}
		panels := []struct {
			label string
			x     func(Fig2Point) float64
			y     func(Fig2Point) float64
		}{
			{"fdiv vs 8x8 entropy", func(p Fig2Point) float64 { return p.Entropy8 }, func(p Fig2Point) float64 { return p.FDivRatio }},
			{"fdiv vs full entropy", func(p Fig2Point) float64 { return p.EntropyFull }, func(p Fig2Point) float64 { return p.FDivRatio }},
			{"fmul vs 8x8 entropy", func(p Fig2Point) float64 { return p.Entropy8 }, func(p Fig2Point) float64 { return p.FMulRatio }},
			{"fmul vs full entropy", func(p Fig2Point) float64 { return p.EntropyFull }, func(p Fig2Point) float64 { return p.FMulRatio }},
		}
		for _, panel := range panels {
			var xs, ys []float64
			for _, pt := range t8.Points {
				x, y := panel.x(pt), panel.y(pt)
				if math.IsNaN(x) || math.IsNaN(y) {
					continue
				}
				xs = append(xs, x)
				ys = append(ys, y)
			}
			fit := Fig2Fit{Label: panel.label, Points: len(xs)}
			if p, _, err := fitting.Levenberg(fitting.Line, xs, ys, []float64{0.5, -0.05}); err == nil {
				fit.Intercept, fit.Slope = p[0], p[1]
			} else {
				fit.Intercept, fit.Slope = math.NaN(), math.NaN()
			}
			res.Fits = append(res.Fits, fit)
		}
		return res
	}
	return demands, finish
}

// Result builds the fitted lines (the figure's interpretable content) as
// a typed table.
func (r *Figure2Result) Result() *report.Result {
	res := report.NewTableResult("Figure 2: hit ratio vs entropy (Marquardt-Levenberg line fits)",
		"panel", "points", "intercept", "slope (per bit)")
	for _, f := range r.Fits {
		res.AddRow(report.Str(f.Label), report.Int(int64(f.Points)),
			report.FixedCell(f.Intercept, 3), report.FixedCell(f.Slope, 3))
	}
	return res
}

// Render prints the fitted lines.
func (r *Figure2Result) Render() string { return report.Text(r.Result()) }

func init() {
	register("table8", "Input images: entropies and mean hit ratios", ratioOps, planTable8)
	register("figure2", "Hit ratio vs entropy line fits (Marquardt-Levenberg)",
		[]isa.Op{isa.OpFMul, isa.OpFDiv}, planFigure2)
}
