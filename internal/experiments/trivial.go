package experiments

import (
	"math"

	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
)

// Table9Apps are the eight applications of the paper's trivial-operation
// study.
var Table9Apps = []string{
	"vdiff", "vcost", "vgauss", "vspatial", "vslope", "vgef", "vdetilt", "venhance",
}

// Table9Cell is one op class's trivial-policy comparison for one app.
type Table9Cell struct {
	TrivialFraction float64 // trv: trivial ops / all ops
	All             float64 // hit ratio caching everything
	Non             float64 // hit ratio caching non-trivial only
	Integrated      float64 // trivial detection integrated (trivial = hit)
}

// Table9Row is one application across the three memoized classes.
type Table9Row struct {
	Name string
	Cell map[isa.Op]Table9Cell
}

// Table9Result is the full policy-comparison table.
type Table9Result struct {
	Rows []Table9Row
}

// planTable9 plans the trivial-operation policy comparison: for each
// application, one ordered demand feeds a caching-everything and a
// non-trivial-only table set over the application's inputs (32/4
// tables). The non-trivial-only set is the one table7 reads. It also
// gives the integrated column, because both policies keep trivial
// operations out of the table: an Integrated set's tables would match it
// exactly (memo's TestIntegratedAndNonTrivialTablesAgree).
func planTable9(ctx *Context) ([]Demand, func() *Table9Result) {
	type policies struct {
		all, non *TableSet
	}
	ps := make([]policies, len(Table9Apps))
	var demands []Demand
	for i, name := range Table9Apps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		ps[i] = policies{
			all: f.Tables(memo.Paper32x4(), memo.CacheAll, ratioOps...),
			non: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, ratioOps...),
		}
		demands = append(demands, f.Demands()...)
	}
	finish := func() *Table9Result {
		res := &Table9Result{Rows: make([]Table9Row, len(Table9Apps))}
		for i, name := range Table9Apps {
			row := Table9Row{Name: name, Cell: map[isa.Op]Table9Cell{}}
			for _, op := range ratioOps {
				u := ps[i].non.Unit(op)
				if u.TotalOps() == 0 {
					row.Cell[op] = Table9Cell{
						TrivialFraction: math.NaN(), All: math.NaN(),
						Non: math.NaN(), Integrated: math.NaN(),
					}
					continue
				}
				row.Cell[op] = Table9Cell{
					TrivialFraction: float64(u.TrivialOps()) / float64(u.TotalOps()),
					All:             ps[i].all.HitRatio(op),
					Non:             ps[i].non.HitRatio(op),
					Integrated:      u.Table().Stats().IntegratedHitRatio(),
				}
			}
			res.Rows[i] = row
		}
		return res
	}
	return demands, finish
}

// Average returns the column means across applications, skipping '-'.
func (r *Table9Result) Average() Table9Row {
	avg := Table9Row{Name: "average", Cell: map[isa.Op]Table9Cell{}}
	for _, op := range ratioOps {
		var trv, all, non, intg []float64
		for _, row := range r.Rows {
			c := row.Cell[op]
			trv = append(trv, c.TrivialFraction)
			all = append(all, c.All)
			non = append(non, c.Non)
			intg = append(intg, c.Integrated)
		}
		avg.Cell[op] = Table9Cell{
			TrivialFraction: meanIgnoringNaN(trv),
			All:             meanIgnoringNaN(all),
			Non:             meanIgnoringNaN(non),
			Integrated:      meanIgnoringNaN(intg),
		}
	}
	return avg
}

// Result builds Table 9 as a typed table in the paper's layout (trv %,
// all, non, intgr per class).
func (r *Table9Result) Result() *report.Result {
	res := report.NewTableResult("Table 9: trivial-operation policies (32/4)",
		"application",
		"im trv", "im all", "im non", "im intgr",
		"fm trv", "fm all", "fm non", "fm intgr",
		"fd trv", "fd all", "fd non", "fd intgr")
	rows := append(append([]Table9Row(nil), r.Rows...), r.Average())
	for _, row := range rows {
		cells := []report.Cell{report.Str(row.Name)}
		for _, op := range ratioOps {
			c := row.Cell[op]
			cells = append(cells,
				report.RatioCell(c.TrivialFraction), report.RatioCell(c.All),
				report.RatioCell(c.Non), report.RatioCell(c.Integrated))
		}
		res.AddRow(cells...)
	}
	return res
}

// Render prints Table 9 in the paper's layout.
func (r *Table9Result) Render() string { return report.Text(r.Result()) }

func init() {
	register("table9", "Trivial-operation policies at 32/4 (all/non/intgr)", ratioOps, planTable9)
}
