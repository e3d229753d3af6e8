package experiments

import (
	"fmt"
	"math"

	"memotable/internal/cpu"
	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/report"
	"memotable/internal/sketch"
	"memotable/internal/trace"
)

// LiveBank is the measurement half of a live ingest (engine.Ingest): the banks a
// streamed operand trace feeds while it is still arriving. It bundles
// the same instruments the offline drivers use — a TableSet for per-class
// hit ratios, a cycle tally priced on a baseline machine and on one
// enhanced with the TableSet's own units (the planSpeedupStudy pairing),
// and a bounded-memory sketch estimator for the stream's reuse ratio —
// behind one sink fan-out, plus rolling report.Result snapshots of all
// of them.
//
// Determinism carries over from the replay machinery: the banks' state
// after N events is a pure function of the first N events, so a live
// session and an offline replay of the same stream render byte-identical
// snapshots — the property the differential tests pin.
type LiveBank struct {
	proc   isa.Processor
	tables *TableSet
	tally  *cpu.Model
	est    *sketch.ReuseEstimator
	sinks  []trace.Sink
}

// NewLiveBank builds a bank: tables of the given geometry and policy for
// hit ratios, a cycle tally priced on the processor (the enhanced
// machine attaches the hit-ratio tables' own units, as the speedup
// studies attach their shared table sets'), and a default-geometry
// sketch estimator seeded with seed.
func NewLiveBank(proc isa.Processor, cfg memo.Config, policy memo.TrivialPolicy, seed uint64) *LiveBank {
	b := &LiveBank{
		proc:   proc,
		tables: NewTableSet(cfg, policy),
		tally:  cpu.New(),
		est:    sketch.NewDefaultReuseEstimator(seed),
	}
	b.sinks = []trace.Sink{b.tables, b.tally, &sketchSink{est: b.est, mask: trace.MaskOf(MemoOps...)}}
	return b
}

// NewDefaultLiveBank builds a bank with the paper's study defaults: the
// fast-FP machine, 32×4 tables, trivial operations excluded.
func NewDefaultLiveBank(seed uint64) *LiveBank {
	return NewLiveBank(isa.FastFP(), memo.Paper32x4(), memo.NonTrivialOnly, seed)
}

// Sinks returns the bank's sink fan-out, ready for engine.IngestOptions
// or a ReplayAll.
func (b *LiveBank) Sinks() []trace.Sink { return b.sinks }

// HitRatio returns the class's rolling hit ratio (NaN if never seen).
func (b *LiveBank) HitRatio(op isa.Op) float64 { return b.tables.HitRatio(op) }

// Speedup returns baseline cycles over enhanced cycles so far — the
// rolling whole-stream speedup (NaN before any event).
func (b *LiveBank) Speedup() float64 {
	enh := b.tally.On(b.proc, b.tables.Units(MemoOps...)...)
	if enh.Total == 0 {
		return math.NaN()
	}
	return float64(b.tally.On(b.proc).Total) / float64(enh.Total)
}

// SketchReuse returns the sketch estimate of the memoizable stream's
// reuse ratio — the hit ratio an unbounded table would achieve (NaN
// before any memoizable event).
func (b *LiveBank) SketchReuse() float64 { return b.est.ReuseRatio() }

// Snapshot renders the bank's rolling state at a stream position as a
// typed result: stream progress scalars, the per-class hit-ratio table,
// the cycle-model speedup, and the sketch reuse estimate.
func (b *LiveBank) Snapshot(st engine.IngestStats) *report.Result {
	tbl := report.NewTableResult("memo-table hit ratios", "class", "hit ratio")
	for _, op := range MemoOps {
		tbl.AddRow(report.Str(op.String()), report.RatioCell(b.tables.HitRatio(op)))
	}
	return report.NewGroup(fmt.Sprintf("live @ %d events", st.Events),
		report.NewScalar("events", report.Int(int64(st.Events)), ""),
		report.NewScalar("frames", report.Int(int64(st.Frames)), ""),
		report.NewScalar("stream bytes", report.Int(st.Bytes), "B"),
		tbl,
		report.NewScalar("speedup", report.FixedCell(b.Speedup(), 3), "x"),
		report.NewScalar("sketch reuse", report.RatioCell(b.SketchReuse()), ""),
	)
}

// sketchSink feeds memoizable events to the reuse estimator; everything
// else is skipped, matching what the MEMO-TABLE banks consume.
type sketchSink struct {
	est  *sketch.ReuseEstimator
	mask trace.OpMask
}

// Emit implements trace.Sink.
func (s *sketchSink) Emit(ev trace.Event) {
	if s.mask.Has(ev.Op) {
		s.est.Observe(sketch.Key3(uint8(ev.Op), ev.A, ev.B))
	}
}

// EmitBatch implements trace.BatchSink.
func (s *sketchSink) EmitBatch(evs []trace.Event) {
	for _, ev := range evs {
		if s.mask.Has(ev.Op) {
			s.est.Observe(sketch.Key3(uint8(ev.Op), ev.A, ev.B))
		}
	}
}

// OpMask implements trace.OpMasker.
func (s *sketchSink) OpMask() trace.OpMask { return s.mask }
