package experiments

import (
	"math"

	"memotable/internal/cpu"
	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
	"memotable/internal/trace"
)

// The paper's §4 names square root as the first target for extending
// MEMO-TABLEs, and cites Oberman & Flynn's reciprocal cache as the
// nearest prior scheme. Both extensions are implemented and evaluated
// here, beyond the paper's own tables.

// SqrtApps are the Multi-Media applications whose pipelines execute
// square roots.
var SqrtApps = []string{"vcost", "venhance", "vslope", "vsurf", "vsqrt", "vrect2pol"}

// SqrtRow is one application's sqrt-memoization result.
type SqrtRow struct {
	Name     string
	HitRatio float64
	FE       float64
	SE       float64
	Speedup  float64
}

// SqrtResult is the sqrt-extension study.
type SqrtResult struct {
	Rows []SqrtRow
}

// planSqrt plans MEMO-TABLEs on the square-root unit (latency 17 cycles,
// a digit-recurrence unit's cost at 1 bit/cycle), the paper's first
// future-work item, with the Table 11 methodology: per application one
// ordered demand whose cycle tally is priced on a baseline and an
// enhanced machine.
func planSqrt(ctx *Context) ([]Demand, func() *SqrtResult) {
	proc := isa.FastFP()
	type machine struct {
		tally  *cpu.Model
		tables *TableSet
	}
	ms := make([]machine, len(SqrtApps))
	var demands []Demand
	for i, name := range SqrtApps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		ms[i] = machine{
			tally:  f.Model(),
			tables: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, isa.OpFSqrt),
		}
		demands = append(demands, f.Demands()...)
	}
	finish := func() *SqrtResult {
		res := &SqrtResult{Rows: make([]SqrtRow, len(SqrtApps))}
		for i, name := range SqrtApps {
			c := cellFrom(ms[i].tally, proc, ms[i].tables.Units(isa.OpFSqrt))
			res.Rows[i] = SqrtRow{
				Name: name, HitRatio: c.HitRatio, FE: c.FE, SE: c.SE, Speedup: c.Speedup,
			}
		}
		return res
	}
	return demands, finish
}

// ExtensionSqrt evaluates the sqrt extension standalone on the given
// engine.
func ExtensionSqrt(eng *engine.Engine, scale Scale) *SqrtResult {
	return runPlan(eng, scale, planSqrt)
}

// Result builds the sqrt study as a typed table.
func (r *SqrtResult) Result() *report.Result {
	res := report.NewTableResult(
		"Extension: fp square root memoized (17-cycle unit; paper §4 future work)",
		"app", "hit ratio", "FE", "SE", "Speedup")
	var hr, fe, se, sp []float64
	for _, row := range r.Rows {
		res.AddRow(report.Str(row.Name), report.RatioCell(row.HitRatio),
			report.FloatCell(row.FE, 3), report.FloatCell(row.SE, 2),
			report.FloatCell(row.Speedup, 2))
		hr = append(hr, row.HitRatio)
		fe = append(fe, row.FE)
		se = append(se, row.SE)
		sp = append(sp, row.Speedup)
	}
	res.AddRow(report.Str("average"), report.RatioCell(meanIgnoringNaN(hr)),
		report.FloatCell(meanIgnoringNaN(fe), 3),
		report.FloatCell(meanIgnoringNaN(se), 2),
		report.FloatCell(meanIgnoringNaN(sp), 2))
	return res
}

// Render prints the sqrt study.
func (r *SqrtResult) Render() string { return report.Text(r.Result()) }

// RecipRow compares a fdiv MEMO-TABLE against a reciprocal cache of equal
// geometry on one application.
type RecipRow struct {
	Name string
	// MemoHit and RecipHit are the two schemes' hit ratios. The
	// reciprocal cache keys on the divisor alone, so RecipHit >= MemoHit
	// is expected; the memo hit is worth more cycles.
	MemoHit  float64
	RecipHit float64
	// MemoSaved and RecipSaved are cycles avoided per scheme on a 13-cycle
	// divider with a 3-cycle multiplier (hit costs: 1 vs 3 cycles).
	MemoSaved  uint64
	RecipSaved uint64
	// Mismatches counts uncorrected-fast-path rounding deviations the
	// reciprocal cache would have emitted.
	Mismatches uint64
}

// RecipResult is the baseline comparison.
type RecipResult struct {
	Rows []RecipRow
}

// recipSink adapts a RecipCache to the event stream.
type recipSink struct{ rc *memo.RecipCache }

func (s recipSink) Emit(ev trace.Event) {
	if ev.Op == isa.OpFDiv {
		s.rc.Apply(math.Float64frombits(ev.A), math.Float64frombits(ev.B))
	}
}

// EmitBatch implements trace.BatchSink.
func (s recipSink) EmitBatch(evs []trace.Event) {
	for _, ev := range evs {
		s.Emit(ev)
	}
}

// OpMask implements trace.OpMasker: the cache sees divisions only, so
// fused replays skip division-free blocks entirely.
func (s recipSink) OpMask() trace.OpMask { return trace.MaskOf(isa.OpFDiv) }

// planRecip plans the MEMO-TABLE against the Oberman/Flynn
// reciprocal-cache baseline at identical geometry (32 entries, 4-way) on
// the speedup-study applications. Applications without divisions are
// dropped in finish.
func planRecip(ctx *Context) ([]Demand, func() *RecipResult) {
	const (
		divLatency = 13
		mulLatency = 3
	)
	type schemes struct {
		memoSet *TableSet
		rc      *memo.RecipCache
	}
	ss := make([]schemes, len(SpeedupApps))
	var demands []Demand
	for i, name := range SpeedupApps {
		f := ctx.Feed(ctx.AppWorkloads(ctx.App(name))...)
		ss[i] = schemes{
			memoSet: f.Tables(memo.Paper32x4(), memo.NonTrivialOnly, isa.OpFDiv),
			rc:      memo.NewRecipCache(memo.Paper32x4()),
		}
		f.Sink(recipSink{ss[i].rc})
		demands = append(demands, f.Demands()...)
	}
	finish := func() *RecipResult {
		res := &RecipResult{}
		for i, name := range SpeedupApps {
			mSt := ss[i].memoSet.Unit(isa.OpFDiv).Table().Stats()
			rSt := ss[i].rc.Stats()
			if mSt.Lookups == 0 {
				continue // application without divisions
			}
			res.Rows = append(res.Rows, RecipRow{
				Name:       name,
				MemoHit:    mSt.HitRatio(),
				RecipHit:   rSt.HitRatio(),
				MemoSaved:  mSt.Hits * uint64(divLatency-1),
				RecipSaved: rSt.Hits * uint64(divLatency-mulLatency),
				Mismatches: ss[i].rc.RoundingMismatch(),
			})
		}
		return res
	}
	return demands, finish
}

// ExtensionRecip runs the reciprocal-cache comparison standalone on the
// given engine.
func ExtensionRecip(eng *engine.Engine, scale Scale) *RecipResult {
	return runPlan(eng, scale, planRecip)
}

// Result builds the comparison as a typed table.
func (r *RecipResult) Result() *report.Result {
	res := report.NewTableResult(
		"Extension: MEMO-TABLE vs reciprocal cache (32/4; div 13, mul 3 cycles)",
		"app", "memo hit", "recip hit", "memo saved", "recip saved", "uncorrected ulps")
	for _, row := range r.Rows {
		res.AddRow(report.Str(row.Name),
			report.RatioCell(row.MemoHit), report.RatioCell(row.RecipHit),
			report.Int(int64(row.MemoSaved)), report.Int(int64(row.RecipSaved)),
			report.Int(int64(row.Mismatches)))
	}
	return res
}

// Render prints the comparison.
func (r *RecipResult) Render() string { return report.Text(r.Result()) }

func init() {
	register("sqrt-extension", "Fp square root memoized on a 17-cycle unit",
		[]isa.Op{isa.OpFSqrt}, planSqrt)
	register("recip-comparison", "MEMO-TABLE vs Oberman/Flynn reciprocal cache at 32/4",
		[]isa.Op{isa.OpFDiv}, planRecip)
}
