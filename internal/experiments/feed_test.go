package experiments

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// demandKeys lists the workload keys of each of a plan's sequence
// demands, in order. It leaves out the single-workload demands of the
// workload leads the plan created, since which plan creates a lead
// depends on planning order, and fails unless each of those names a
// workload the sequence demands already list.
func demandKeys(t *testing.T, ctx *Context, p Plan) [][]string {
	t.Helper()
	var out [][]string
	listed := make(map[string]bool)
	var leadKeys []string
	for _, d := range p.Demands {
		if len(d.Workloads) == 1 && len(d.Sinks) == 1 && d.Sinks[0] == ctx.shared.leads[d.Workloads[0].Key] {
			leadKeys = append(leadKeys, d.Workloads[0].Key)
			continue
		}
		var keys []string
		for _, w := range d.Workloads {
			keys = append(keys, w.Key)
			listed[w.Key] = true
		}
		out = append(out, keys)
	}
	for _, k := range leadKeys {
		if !listed[k] {
			t.Errorf("a lead demand names %s, which no sequence demand of its plan lists", k)
		}
	}
	return out
}

// TestRegistrySubscribesEachSinkOnce: the engine delivers to a sink once
// per demand naming it, so a shared structure must be subscribed by the
// one demand that created it and by no other.
func TestRegistrySubscribesEachSinkOnce(t *testing.T) {
	ctx := &Context{Eng: engine.New(1), Scale: Tiny}
	owner := make(map[trace.Sink]string)
	for _, ex := range All() {
		for di, d := range ex.Plan(ctx).Demands {
			for _, s := range d.Sinks {
				where := fmt.Sprintf("%s demand %d", ex.Name, di)
				if prev, dup := owner[s]; dup {
					t.Errorf("%T subscribed by %s and by %s", s, prev, where)
				}
				owner[s] = where
			}
		}
	}
	if len(owner) == 0 {
		t.Fatal("the registry subscribed no sinks")
	}
}

// TestFigure2ReadsTable8Cells: figure2 planned after table8 simulates
// nothing of its own, yet still demands every workload table8 does.
func TestFigure2ReadsTable8Cells(t *testing.T) {
	ctx := &Context{Eng: engine.New(1), Scale: Tiny}
	exps, err := Lookup("table8", "figure2")
	if err != nil {
		t.Fatal(err)
	}
	t8, f2 := exps[0].Plan(ctx), exps[1].Plan(ctx)
	for i, d := range f2.Demands {
		if len(d.Sinks) != 0 {
			t.Fatalf("figure2 demand %d subscribes %d sinks after table8", i, len(d.Sinks))
		}
	}
	if !reflect.DeepEqual(demandKeys(t, ctx, f2), demandKeys(t, ctx, t8)) {
		t.Fatal("figure2 demands other workloads than table8")
	}
}

// TestPlanDemandsIndependentOfSharing: what an experiment demands — and
// so the pass's serial order and which failures degrade it — must not
// depend on which other experiments were planned before it.
func TestPlanDemandsIndependentOfSharing(t *testing.T) {
	all := All()
	for i, ex := range all {
		actx := &Context{Eng: engine.New(1), Scale: Tiny}
		alone := demandKeys(t, actx, ex.Plan(actx))
		ctx := &Context{Eng: engine.New(1), Scale: Tiny}
		for j, other := range all {
			if j != i {
				other.Plan(ctx)
			}
		}
		if after := demandKeys(t, ctx, ex.Plan(ctx)); !reflect.DeepEqual(alone, after) {
			t.Errorf("%s demands differ when planned after the rest of the registry:\nalone %v\nafter %v",
				ex.Name, alone, after)
		}
	}
}

// TestSharedCellFailureDegradesEveryReader: a workload whose capture
// fails poisons the table8 cell that owns its sink and the figure2 plan
// that only reads that cell.
func TestSharedCellFailureDegradesEveryReader(t *testing.T) {
	eng := engine.New(2)
	ctx := &Context{Eng: eng, Scale: Tiny}
	exps, err := Lookup("table8", "figure2")
	if err != nil {
		t.Fatal(err)
	}
	plans := []Plan{exps[0].Plan(ctx), exps[1].Plan(ctx)}
	bad := plans[0].Demands[0].Workloads[0].Key
	if !strings.HasPrefix(bad, "mm|") {
		t.Fatalf("table8's first workload %q is not an (app, image) run", bad)
	}
	for _, p := range plans {
		for _, d := range p.Demands {
			for i := range d.Workloads {
				if d.Workloads[i].Key == bad {
					d.Workloads[i].Capture = func(trace.Sink) { panic("injected capture fault") }
				}
			}
		}
	}
	results, rep, err := runPlans(context.Background(), eng, exps, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || rep.Errors[0].Key != bad {
		t.Fatalf("pass errors %v, want exactly %s", rep.Errors, bad)
	}
	for _, r := range results {
		if len(r.Errs) != 1 || r.Errs[0].Workload != bad || r.Errs[0].Stage != "capture" {
			t.Errorf("%s: errors %+v, want a capture failure of %s", r.Name, r.Errs, bad)
		}
	}
}

// TestFeedSharesAndWidensTables: one (configuration, policy, sequence)
// is one TableSet, holding the union of the classes asked for; another
// sequence, configuration or policy is another set.
func TestFeedSharesAndWidensTables(t *testing.T) {
	var ctx Context // the zero value must work
	w := func(key string) Workload { return Workload{Key: key} }
	f1 := ctx.Feed(w("a"), w("b"))
	ts := f1.Tables(memo.Paper32x4(), memo.NonTrivialOnly, isa.OpFDiv)
	if ts.Unit(isa.OpFMul) != nil || ts.OpMask() != trace.MaskOf(isa.OpFDiv) {
		t.Fatalf("set holds more than fdiv: mask %b", ts.OpMask())
	}
	f2 := ctx.Feed(w("a"), w("b"))
	if got := f2.Tables(memo.Paper32x4(), memo.NonTrivialOnly, isa.OpFMul); got != ts {
		t.Fatal("same configuration over the same sequence built a second set")
	}
	if ts.OpMask() != trace.MaskOf(isa.OpFMul, isa.OpFDiv) || ts.Unit(isa.OpFMul) == nil {
		t.Fatalf("shared set not widened to fmul: mask %b", ts.OpMask())
	}
	if f1.Model() != f2.Model() {
		t.Fatal("one sequence got two cycle tallies")
	}
	for name, other := range map[string]*TableSet{
		"other order":  ctx.Feed(w("b"), w("a")).Tables(memo.Paper32x4(), memo.NonTrivialOnly),
		"other config": f2.Tables(memo.Infinite(), memo.NonTrivialOnly),
		"other policy": f2.Tables(memo.Paper32x4(), memo.Integrated),
	} {
		if other == ts {
			t.Errorf("%s shares the set", name)
		}
	}
	ds := f1.Demands()
	if len(ds) != 3 || len(ds[0].Sinks) != 1 || ds[0].Sinks[0] != f1.Model() || len(ds[0].Workloads) != 2 {
		t.Fatalf("first feed demands %+v, want its tally over both workloads, then one lead per workload", ds)
	}
	for i, key := range []string{"a", "b"} {
		d := ds[i+1]
		lead, ok := d.Sinks[0].(*TableSet)
		if len(d.Sinks) != 1 || !ok || len(d.Workloads) != 1 || d.Workloads[0].Key != key {
			t.Fatalf("lead demand %d: %d sinks over %v, want one lead over %s", i, len(d.Sinks), d.Workloads, key)
		}
		// Every set over a sequence holding the workload joins its lead,
		// in the order the sets were built.
		if len(lead.fed) != 4 || lead.fed[0] != ts {
			t.Errorf("lead of %s feeds %d sets, want 4 with the first set first", key, len(lead.fed))
		}
	}
	if ds := ctx.Feed(w("a"), w("b")).Demands(); len(ds) != 1 || len(ds[0].Sinks) != 0 || len(ds[0].Workloads) != 2 {
		t.Errorf("a feed that created nothing demands %+v, want its sequence alone with no sinks", ds)
	}
}
