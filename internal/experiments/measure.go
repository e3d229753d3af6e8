// Package experiments contains one driver per table and figure of the
// paper's evaluation (§3), plus the shared machinery that runs a workload
// once and measures every attached MEMO-TABLE. See DESIGN.md for the
// experiment index.
//
// Every driver is a registered Experiment (registry.go): its plan half
// declares which workload traces feed which sinks, the engine's
// cross-experiment planner (engine.RunPass) runs each demanded workload
// once into every subscribed sink across the whole selection, and its
// finish half assembles a typed
// report.Result. Every sink sees its workloads in declared order, so
// rendered output is bit-identical at any worker count;
// engine.Serial() gives the reference single-threaded path.
package experiments

import (
	"fmt"
	"math"
	"sync"

	"memotable/internal/engine"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/probe"
	"memotable/internal/trace"
	"memotable/internal/workloads"
)

// MemoOps are the classes given MEMO-TABLEs in the paper's simulated
// system (§3.1): integer multiplier, fp multiplier, fp divider — plus the
// fp square root extension.
var MemoOps = []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt}

// TableSet is one simulated system: a MEMO-TABLE per memoizable class it
// measures, all of one geometry and trivial-operation policy, fed from a
// trace stream. Units are held in a per-class array, so dispatch costs
// no map probe.
//
// A set is also a sink for itself and for the sets that joined it: every
// set a Context builds over one workload sequence joins the first, and
// only that first set is subscribed (Feed.Tables). Its EmitBatch splits
// each block once into per-class operand columns and runs every joined
// unit of a class over the class's column, so the block is walked and
// its operands classified once per sequence, not once per set.
type TableSet struct {
	cfg    memo.Config
	policy memo.TrivialPolicy
	units  [isa.NumOps]*memo.Unit
	mask   trace.OpMask
	// fed lists the sets this set's Emit and EmitBatch feed: itself
	// first, then the sets that joined it, in join order.
	fed []*TableSet
}

// NewTableSet builds identical tables for all MemoOps.
func NewTableSet(cfg memo.Config, policy memo.TrivialPolicy) *TableSet {
	ts := newTableSet(cfg, policy)
	ts.widen(MemoOps...)
	return ts
}

// newTableSet builds a set holding no tables yet.
func newTableSet(cfg memo.Config, policy memo.TrivialPolicy) *TableSet {
	ts := &TableSet{cfg: cfg, policy: policy}
	ts.fed = []*TableSet{ts}
	return ts
}

// widen gives the set a table for each of ops it does not hold yet. It
// must run before the set sees its first event, or the new tables would
// miss the start of the stream.
func (ts *TableSet) widen(ops ...isa.Op) {
	for _, op := range ops {
		if ts.units[op] == nil {
			ts.units[op] = memo.NewUnit(memo.New(op, ts.cfg), ts.policy, nil)
			ts.mask |= trace.MaskOf(op)
		}
	}
}

// join makes ts feed o, which must hold no sets of its own and must not
// be subscribed anywhere. Like widen, it runs before ts sees an event.
func (ts *TableSet) join(o *TableSet) { ts.fed = append(ts.fed, o) }

// Emit implements trace.Sink: a memoizable event exercises its class's
// table in every fed set.
func (ts *TableSet) Emit(ev trace.Event) {
	for _, s := range ts.fed {
		if u := s.units[ev.Op]; u != nil {
			u.Apply(ev.A, ev.B)
		}
	}
}

// columns is the scratch of one EmitBatch call: an operand column per
// class. It is pooled rather than kept per set, so a pass holds about
// one per worker, not one per set.
type columns [isa.NumOps]memo.Column

var columnPool = sync.Pool{New: func() any { return new(columns) }}

// columnChunk bounds the events split into columns at once, so a caller
// handing over a whole trace in one batch does not grow the pooled
// scratch past an engine block's worth (8192 events).
const columnChunk = 8192

// EmitBatch implements trace.BatchSink: the block is split into one
// column per class the fed sets hold, and each fed unit runs over its
// class's column. Every unit sees exactly the events Emit would give it,
// in order.
func (ts *TableSet) EmitBatch(evs []trace.Event) {
	mask := ts.OpMask()
	cols := columnPool.Get().(*columns)
	for len(evs) > 0 {
		chunk := evs[:min(len(evs), columnChunk)]
		evs = evs[len(chunk):]
		for _, op := range MemoOps {
			cols[op].Reset(op)
		}
		for _, ev := range chunk {
			if mask.Has(ev.Op) {
				cols[ev.Op].Push(ev.A, ev.B)
			}
		}
		for _, op := range MemoOps {
			c := &cols[op]
			if c.Len() == 0 {
				continue
			}
			for _, s := range ts.fed {
				if u := s.units[op]; u != nil {
					u.ApplyColumn(c)
				}
			}
		}
	}
	columnPool.Put(cols)
}

// OpMask implements trace.OpMasker: the union of the classes the fed sets
// hold, so fused replays skip blocks carrying none of them. It is read
// when a replay starts, so it covers sets joined or widened while
// planning.
func (ts *TableSet) OpMask() trace.OpMask {
	var m trace.OpMask
	for _, s := range ts.fed {
		m |= s.mask
	}
	return m
}

// Unit returns the unit for one class, or nil if the set holds none.
func (ts *TableSet) Unit(op isa.Op) *memo.Unit { return ts.units[op] }

// Units returns the units for the given classes, in order — the memo
// units a cycle model prices its enhanced machine with.
func (ts *TableSet) Units(ops ...isa.Op) []*memo.Unit {
	us := make([]*memo.Unit, len(ops))
	for i, op := range ops {
		us[i] = ts.units[op]
	}
	return us
}

// HitRatio returns the class's hit ratio under the set's policy, or NaN
// if the class never appeared (the paper's '-' entries).
func (ts *TableSet) HitRatio(op isa.Op) float64 {
	u := ts.units[op]
	if u == nil || u.TotalOps() == 0 {
		return math.NaN()
	}
	if u.Policy() == memo.Integrated {
		return u.Table().Stats().IntegratedHitRatio()
	}
	return u.Table().Stats().HitRatio()
}

// Runner abstracts "run this program through a probe": both MM image
// applications and scientific kernels satisfy it. The address space is
// the run's own — images allocated from it carry bases independent of
// anything else the process runs, so Runners can execute concurrently.
type Runner func(p *probe.Probe, as *imaging.AddressSpace)

// ImageRun curries an MM application with its input; the input is placed
// into the run's address space before the application sees it, mirroring
// the engine's capture path.
func ImageRun(run func(*probe.Probe, *imaging.AddressSpace, *imaging.Image) *imaging.Image, in *imaging.Image) Runner {
	return func(p *probe.Probe, as *imaging.AddressSpace) { run(p, as, as.Clone(in)) }
}

// kernelRunner lifts a scientific kernel (which touches no images) into
// a Runner.
func kernelRunner(run func(*probe.Probe)) Runner {
	return func(p *probe.Probe, _ *imaging.AddressSpace) { run(p) }
}

// Measure runs the program once against table sets built from cfg and
// policy, returning the set (for hit ratios) and the op counter (for
// instruction mixes).
func Measure(run Runner, cfg memo.Config, policy memo.TrivialPolicy) (*TableSet, *trace.Counter) {
	ts := NewTableSet(cfg, policy)
	var c trace.Counter
	run(probe.New(ts, &c), imaging.NewAddressSpace())
	return ts, &c
}

// kernelKey names a scientific kernel's workload for the planner.
func kernelKey(name string) string { return "sci|" + name }

// appKey names an MM application run's workload for the planner. The
// decimation bound participates so different scales never share a key.
func appKey(app, input string, scale Scale) string {
	return fmt.Sprintf("mm|%s|%s|%d", app, input, scale.maxDim())
}

// captureOf adapts a Runner to the engine's capture interface: the
// workload executes against a probe whose only sink is the recorder,
// allocating every image from a private address space. The addresses a
// workload emits (and hence its trace) are a pure function of the
// workload, so the engine runs workloads concurrently on its worker pool.
func captureOf(run Runner) engine.CaptureFunc {
	return func(s trace.Sink) {
		run(probe.New(s), imaging.NewAddressSpace())
	}
}

// appRunner curries an MM application with a named input, deferring the
// image load/decimate to capture time, when the workload runs.
// Decimating the input is the run's first allocation, so every capture
// of the same (app, input, scale) triple sees identical addresses.
func appRunner(app workloads.App, input string, scale Scale) Runner {
	return func(p *probe.Probe, as *imaging.AddressSpace) {
		app.Run(p, as, as.Decimate(catalogImage(input), scale.maxDim()))
	}
}

// meanIgnoringNaN averages the defined values; NaN entries ('-') are
// skipped, as in the paper's per-suite averages.
func meanIgnoringNaN(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if !math.IsNaN(x) {
			s += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}
