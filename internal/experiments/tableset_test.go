package experiments

import (
	"math"
	"math/rand"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// joinedSpec is one table set a test asks a Feed for.
type joinedSpec struct {
	cfg    memo.Config
	policy memo.TrivialPolicy
	ops    []isa.Op
}

// joinedSpecs mixes geometries, tagging schemes, policies and class
// subsets over one sequence: the first holds only fmul, later ones hold
// classes it lacks.
var joinedSpecs = []joinedSpec{
	{memo.Paper32x4(), memo.NonTrivialOnly, []isa.Op{isa.OpFMul}},
	{memo.Infinite(), memo.CacheAll, MemoOps},
	{memo.Config{Entries: 8, Ways: 1, MantissaOnly: true}, memo.Integrated, []isa.Op{isa.OpFDiv, isa.OpFSqrt}},
	{memo.Config{Entries: 64, Ways: 2}, memo.NonTrivialOnly, []isa.Op{isa.OpFSqrt}},
	{memo.Config{Entries: 16}, memo.Integrated, []isa.Op{isa.OpIMul, isa.OpFMul}},
}

// planJoined builds the specs over one workload, one Feed per set as
// separate plans would, and returns the sets and the sinks the feeds
// subscribe.
func planJoined(t *testing.T, ctx *Context, specs []joinedSpec, w Workload) ([]*TableSet, []trace.Sink) {
	t.Helper()
	var sets []*TableSet
	var sinks []trace.Sink
	for _, s := range specs {
		f := ctx.Feed(w)
		sets = append(sets, f.Tables(s.cfg, s.policy, s.ops...))
		for _, d := range f.Demands() {
			sinks = append(sinks, d.Sinks...)
		}
	}
	if len(sinks) != 1 || sinks[0] != ctx.shared.leads[w.Key] {
		t.Fatalf("feeds over one workload subscribe %v, want only its lead", sinks)
	}
	return sets, sinks
}

// referenceSets builds each of the specs on its own, unjoined.
func referenceSets(specs []joinedSpec) []*TableSet {
	var sets []*TableSet
	for _, s := range specs {
		ts := newTableSet(s.cfg, s.policy)
		ts.widen(s.ops...)
		sets = append(sets, ts)
	}
	return sets
}

// sameUnits fails unless every set holds the classes its reference does,
// with identical counters and table statistics.
func sameUnits(t *testing.T, what string, got, want []*TableSet) {
	t.Helper()
	for i := range want {
		for op := range isa.NumOps {
			g, w := got[i].Unit(op), want[i].Unit(op)
			if (g == nil) != (w == nil) {
				t.Fatalf("%s: set %d holds %v: %v, want %v", what, i, op, g != nil, w != nil)
			}
			if g == nil {
				continue
			}
			if g.TotalOps() != w.TotalOps() || g.TrivialOps() != w.TrivialOps() || g.Table().Stats() != w.Table().Stats() {
				t.Fatalf("%s: set %d %v: ops %d/%d stats %+v, want %d/%d %+v", what, i, op,
					g.TotalOps(), g.TrivialOps(), g.Table().Stats(), w.TotalOps(), w.TrivialOps(), w.Table().Stats())
			}
		}
	}
}

// randomStream draws n events of the given classes (of every class,
// memoizable or not, if none are given) from small operand pools holding
// the trivial operands and specials, so the tables hit, evict, bypass and
// see trivial operations.
func randomStream(rng *rand.Rand, n int, ops ...isa.Op) []trace.Event {
	fp := []float64{0, 1, -1, 2, 0.5, 3, 1.5, 7, 1e-310, math.Inf(1), math.NaN(), 1e300, 1e-300}
	evs := make([]trace.Event, n)
	for i := range evs {
		op := isa.Op(rng.Intn(int(isa.NumOps)))
		if len(ops) > 0 {
			op = ops[rng.Intn(len(ops))]
		}
		var a, b uint64
		switch op {
		case isa.OpIMul:
			a, b = uint64(rng.Intn(12)), uint64(rng.Intn(12))
		case isa.OpFMul, isa.OpFDiv:
			a, b = math.Float64bits(fp[rng.Intn(len(fp))]), math.Float64bits(fp[rng.Intn(len(fp))])
		case isa.OpFSqrt:
			a = math.Float64bits(fp[rng.Intn(len(fp))])
		default:
			a = rng.Uint64()
		}
		evs[i] = trace.Event{Op: op, A: a, B: b}
	}
	return evs
}

// TestJoinedSetsEmitMatchesEmitBatch: the subscribed set must feed every
// joined set the same events whether the engine delivers per event (a
// declined trace is re-executed through Emit) or in blocks of any size,
// including one larger than a column chunk, and each joined set must end
// as it would have unshared.
func TestJoinedSetsEmitMatchesEmitBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := randomStream(rng, 40000)
	w := Workload{Key: "w"}

	var perEvent Context
	evSets, evSinks := planJoined(t, &perEvent, joinedSpecs, w)
	for _, ev := range stream {
		evSinks[0].Emit(ev)
	}

	var blocks Context
	batchSets, batchSinks := planJoined(t, &blocks, joinedSpecs, w)
	for rest := stream; len(rest) > 0; {
		n := min(rng.Intn(3000), len(rest))
		trace.EmitAll(batchSinks[0], rest[:n])
		rest = rest[n:]
	}

	// One batch of the whole stream, as memobench's sweep hands over a
	// trace, is split into columns a chunk at a time.
	var whole Context
	wholeSets, wholeSinks := planJoined(t, &whole, joinedSpecs, w)
	trace.EmitAll(wholeSinks[0], stream)

	ref := referenceSets(joinedSpecs)
	for _, ev := range stream {
		for _, ts := range ref {
			ts.Emit(ev)
		}
	}
	sameUnits(t, "Emit", evSets, ref)
	sameUnits(t, "EmitBatch", batchSets, ref)
	sameUnits(t, "one EmitBatch", wholeSets, ref)
	for i, ts := range ref {
		for op := range isa.NumOps {
			if u := ts.Unit(op); u != nil && u.Table().Stats().Lookups == 0 {
				t.Errorf("set %d %v: the stream reached no table", i, op)
			}
		}
	}
}

// TestJoinedSetsReachedThroughMaskSkip: a fused replay skips a block for
// the subscribed set only when no joined set holds a class in it. The
// stream runs one class per block; the subscribed set holds only fmul,
// the joined sets hold fsqrt alone and fdiv alone (as extension.go's
// sets do), and the fdiv set is widened with imul after it joined. A
// block of non-memoizable events must still be skipped.
func TestJoinedSetsReachedThroughMaskSkip(t *testing.T) {
	const run = 20000 // several engine blocks per class
	var stream []trace.Event
	rng := rand.New(rand.NewSource(9))
	for _, op := range []isa.Op{isa.OpFMul, isa.OpLoad, isa.OpFSqrt, isa.OpFDiv, isa.OpIMul} {
		stream = append(stream, randomStream(rng, run, op)...)
	}
	w := Workload{Key: "w", Capture: func(s trace.Sink) {
		for _, ev := range stream {
			s.Emit(ev)
		}
	}}
	specs := []joinedSpec{
		{memo.Paper32x4(), memo.NonTrivialOnly, []isa.Op{isa.OpFMul}},
		{memo.Infinite(), memo.NonTrivialOnly, []isa.Op{isa.OpFSqrt}},
		{memo.Config{Entries: 8, Ways: 1, MantissaOnly: true}, memo.Integrated, []isa.Op{isa.OpFDiv}},
	}

	var ctx Context
	sets, sinks := planJoined(t, &ctx, specs, w)
	lead := sinks[0].(*TableSet)
	if want := trace.MaskOf(isa.OpFMul, isa.OpFSqrt, isa.OpFDiv); lead.OpMask() != want {
		t.Fatalf("subscribed mask %b, want the union %b", lead.OpMask(), want)
	}
	if ctx.Feed(w).Tables(specs[2].cfg, specs[2].policy, isa.OpIMul) != sets[2] {
		t.Fatal("the widening request built a new set")
	}
	if want := trace.MaskOf(MemoOps...); lead.OpMask() != want {
		t.Fatalf("subscribed mask %b after widening a joined set, want %b", lead.OpMask(), want)
	}
	eng := engine.New(1)
	if err := eng.RunPass([]Demand{{Sinks: sinks, Workloads: []Workload{w}}}); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().MaskSkips == 0 {
		t.Fatal("the load-only blocks were not skipped")
	}

	ref := referenceSets(specs)
	ref[2].widen(isa.OpIMul)
	for _, ev := range stream {
		for _, ts := range ref {
			ts.Emit(ev)
		}
	}
	sameUnits(t, "fused replay", sets, ref)
	for i, op := range []isa.Op{isa.OpFMul, isa.OpFSqrt, isa.OpFDiv} {
		if sets[i].Unit(op).TotalOps() != run {
			t.Errorf("set %d saw %d of %d %v events", i, sets[i].Unit(op).TotalOps(), run, op)
		}
	}
	if n := sets[2].Unit(isa.OpIMul).TotalOps(); n != run {
		t.Errorf("the widened set saw %d of %d imul events", n, run)
	}
}
