package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"memotable/internal/cpu"
	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
	"memotable/internal/trace"
)

// Tracing from the outside. The benchmark times the layers by wrapping
// the public values it hands to them — each workload's capture function,
// each sink a plan subscribes — and by bracketing its own calls into the
// registry, the engine and the report renderer. Nothing inside the
// program is instrumented, so the traced pass runs the same engine code
// as the untraced one. Every traced pass is checked against the untraced
// pass before it, which ran the same order, on the exact counters
// (runMatrix), and the smoke test checks text and counters: the wrapping
// must leave the planner's sink identity, op masks and fan-out grouping
// as they were.

// span is one timed call at a layer boundary. Times are Unix
// nanoseconds taken from the monotonic clock, so spans recorded by the
// parent and a child process share one axis.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch   time.Time
	epochNS int64
	ids     atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	now := time.Now()
	return &tracer{epoch: now, epochNS: now.UnixNano()}
}

// now reads the monotonic clock as Unix nanoseconds.
func (t *tracer) now() int64 { return t.epochNS + int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// Layer names for sink spans, by the kind of sink a plan subscribed.
const (
	layerMemo  = "memo"
	layerCPU   = "cpu"
	layerOther = "experiments"
)

// sinkLayer classifies a plan's sink: MEMO-TABLE sets, cycle models, and
// everything else (reciprocal caches, reuse and sketch observers,
// counters). Fan-out affinity wrappers are looked through.
func sinkLayer(s trace.Sink) string {
	if g, ok := s.(trace.GroupedSink); ok {
		s = g.Sink
	}
	switch s.(type) {
	case *experiments.TableSet:
		return layerMemo
	case *cpu.Model:
		return layerCPU
	}
	return layerOther
}

// spanSink times every delivery into one plan sink. A sink is fed by one
// goroutine at a time (the engine's contract with stateful sinks), so
// the span list needs no lock; it is read after the pass returns.
type spanSink struct {
	inner  trace.Sink
	layer  string
	name   string
	t      *tracer
	spans  []interval
	events uint64
}

func (s *spanSink) Emit(ev trace.Event) {
	t0 := s.t.now()
	s.inner.Emit(ev)
	s.spans = append(s.spans, interval{t0, s.t.now()})
	s.events++
}

func (s *spanSink) EmitBatch(evs []trace.Event) {
	t0 := s.t.now()
	trace.EmitAll(s.inner, evs)
	s.spans = append(s.spans, interval{t0, s.t.now()})
	s.events += uint64(len(evs))
}

// OpMask advertises the wrapped sink's classes, so block skipping sees
// the same masks it would without the wrapper.
func (s *spanSink) OpMask() trace.OpMask { return trace.SinkMask(s.inner) }

// FanoutGroup forwards the wrapped sink's affinity key ("" schedules the
// sink on its own, as for a sink without one).
func (s *spanSink) FanoutGroup() string {
	if g, ok := s.inner.(trace.FanoutGrouper); ok {
		return g.FanoutGroup()
	}
	return ""
}

// countSink counts the events a capture emits on their way to the
// engine's writer.
type countSink struct {
	next trace.Sink
	n    uint64
}

func (c *countSink) Emit(ev trace.Event) {
	c.n++
	c.next.Emit(ev)
}

func (c *countSink) EmitBatch(evs []trace.Event) {
	c.n += uint64(len(evs))
	trace.EmitAll(c.next, evs)
}

// captureSpan is one workload execution inside a traced pass.
type captureSpan struct {
	span
	events uint64
}

// tracedPass is one traced matrix pass: the phase spans the benchmark
// brackets and the wrappers it installed.
type tracedPass struct {
	root                       int64
	plan, pass, finish, render span
	sinks                      []*spanSink
	mu                         sync.Mutex
	captures                   []captureSpan
}

// runTraced is experiments.RunContext rebuilt from the registry's public
// pieces — Lookup, Plan, Engine.RunPassContext, Plan.Finish — with every
// capture and every distinct sink wrapped. Results, degradation and
// naming follow RunContext exactly; the smoke test holds the two paths
// to identical text and identical engine counters.
func runTraced(ctx context.Context, eng *engine.Engine, scale experiments.Scale, names []string, t *tracer) ([]*report.Result, *engine.PassReport, *tracedPass, error) {
	root := t.newID()
	tp := &tracedPass{root: root}
	exps, err := experiments.Lookup(names...)
	if err != nil {
		return nil, nil, nil, err
	}

	tp.plan = span{ID: t.newID(), Parent: root, Layer: "experiments", Name: "plan", Start: t.now()}
	ectx := &experiments.Context{Eng: eng, Scale: scale}
	plans := make([]experiments.Plan, len(exps))
	for i, ex := range exps {
		plans[i] = ex.Plan(ectx)
	}
	tp.plan.End = t.now()

	// One wrapper per distinct sink value: a sink shared between demands
	// must stay one sink to the planner, or identity dedup and fan-out
	// grouping would change.
	passID := t.newID()
	wrapped := make(map[trace.Sink]*spanSink)
	var subs []engine.Subscription
	for _, p := range plans {
		for _, d := range p.Demands {
			sub := engine.Subscription{
				Sinks:     make([]trace.Sink, len(d.Sinks)),
				Workloads: make([]engine.PassWorkload, len(d.Workloads)),
			}
			for i, s := range d.Sinks {
				w, ok := wrapped[s]
				if !ok {
					w = &spanSink{inner: s, layer: sinkLayer(s), name: fmt.Sprintf("%T", s), t: t}
					wrapped[s] = w
					tp.sinks = append(tp.sinks, w)
				}
				sub.Sinks[i] = w
			}
			for i, w := range d.Workloads {
				sub.Workloads[i] = engine.PassWorkload{Key: w.Key, Capture: tp.wrapCapture(t, passID, w)}
			}
			subs = append(subs, sub)
		}
	}

	tp.pass = span{ID: passID, Parent: root, Layer: "engine", Name: "pass", Start: t.now()}
	rep, err := eng.RunPassContext(ctx, subs)
	tp.pass.End = t.now()
	if err != nil {
		return nil, nil, nil, err
	}

	tp.finish = span{ID: t.newID(), Parent: root, Layer: "experiments", Name: "finish", Start: t.now()}
	results := make([]*report.Result, len(exps))
	eng.Map(len(exps), func(i int) {
		results[i] = finishPlan(exps[i].Name, plans[i], rep)
	})
	tp.finish.End = t.now()
	return results, rep, tp, nil
}

// wrapCapture times one workload's capture and counts what it emits.
func (tp *tracedPass) wrapCapture(t *tracer, parent int64, w engine.PassWorkload) engine.CaptureFunc {
	return func(s trace.Sink) {
		cs := &countSink{next: s}
		sp := captureSpan{span: span{ID: t.newID(), Parent: parent, Layer: "workloads", Name: w.Key, Start: t.now()}}
		defer func() {
			sp.End = t.now()
			sp.events = cs.n
			tp.mu.Lock()
			tp.captures = append(tp.captures, sp)
			tp.mu.Unlock()
		}()
		w.Capture(cs)
	}
}

// finishPlan is RunContext's per-experiment finish: a plan that demanded
// a failed workload yields a degraded result, and so does a finish that
// panics.
func finishPlan(name string, p experiments.Plan, rep *engine.PassReport) (r *report.Result) {
	keys := make(map[string]bool)
	for _, d := range p.Demands {
		for _, w := range d.Workloads {
			keys[w.Key] = true
		}
	}
	var errs []report.RunError
	for _, ce := range rep.Errors {
		if keys[ce.Key] {
			errs = append(errs, report.RunError{Workload: ce.Key, Stage: ce.Stage, Message: ce.Err.Error()})
		}
	}
	if len(errs) > 0 {
		return report.NewDegradedResult(name, errs)
	}
	defer func() {
		if rec := recover(); rec != nil {
			r = report.NewDegradedResult(name, []report.RunError{{Stage: "finish", Message: fmt.Sprintf("finish panicked: %v", rec)}})
		}
	}()
	r = p.Finish()
	if r != nil {
		r.Name = name
	}
	return r
}

// layers reduces a traced pass to its per-layer metrics. Sink and
// capture time is summed busy time across goroutines; engine self time
// is the pass span minus the union of everything the wrappers timed
// inside it, which leaves store reads, decode, block walks, the fan-out
// ring and scheduling.
func (tp *tracedPass) layers() map[string]float64 {
	m := make(map[string]float64)
	var busy []interval
	var captureNS int64
	var captureEv uint64
	for _, c := range tp.captures {
		captureNS += c.End - c.Start
		captureEv += c.events
		busy = append(busy, c.interval())
	}
	sinkNS := map[string]int64{}
	sinkEv := map[string]uint64{}
	for _, s := range tp.sinks {
		for _, iv := range s.spans {
			sinkNS[s.layer] += iv.hi - iv.lo
		}
		sinkEv[s.layer] += s.events
		busy = append(busy, s.spans...)
	}
	passNS := tp.pass.End - tp.pass.Start
	var busyNS int64 = captureNS
	for _, ns := range sinkNS {
		busyNS += ns
	}

	m["workloads.captures"] = float64(len(tp.captures))
	m["workloads.capture_s"] = seconds(captureNS)
	m["workloads.events"] = float64(captureEv)
	m["workloads.ns_per_event"] = perEvent(captureNS, captureEv)
	m["engine.pass_s"] = seconds(passNS)
	m["engine.self_s"] = seconds(selfNS(tp.pass.interval(), busy))
	m["engine.parallelism"] = float64(busyNS) / float64(max(passNS, 1))
	m["memo.sink_s"] = seconds(sinkNS[layerMemo])
	m["memo.events"] = float64(sinkEv[layerMemo])
	m["memo.ns_per_event"] = perEvent(sinkNS[layerMemo], sinkEv[layerMemo])
	m["cpu.sink_s"] = seconds(sinkNS[layerCPU])
	m["cpu.events"] = float64(sinkEv[layerCPU])
	m["cpu.ns_per_event"] = perEvent(sinkNS[layerCPU], sinkEv[layerCPU])
	m["experiments.other_sink_s"] = seconds(sinkNS[layerOther])
	m["experiments.plan_s"] = seconds(tp.plan.End - tp.plan.Start)
	m["experiments.finish_s"] = seconds(tp.finish.End - tp.finish.Start)
	m["report.render_s"] = seconds(tp.render.End - tp.render.Start)
	phases := []interval{tp.plan.interval(), tp.pass.interval(), tp.finish.interval(), tp.render.interval()}
	wall := interval{tp.plan.Start, tp.render.End}
	m["bench.span_coverage"] = float64(unionNS(phases, wall.lo, wall.hi)) / float64(max(wall.hi-wall.lo, 1))
	return m
}

// spans flattens the pass into span records for spans.json. Sink
// deliveries keep their wrapper's type name; they are children of the
// pass span.
func (tp *tracedPass) spans(t *tracer) []span {
	matrix := span{ID: tp.root, Layer: "bench", Name: "matrix", Start: tp.plan.Start, End: tp.render.End}
	out := []span{matrix, tp.plan, tp.pass, tp.finish, tp.render}
	for _, c := range tp.captures {
		out = append(out, c.span)
	}
	for _, s := range tp.sinks {
		for _, iv := range s.spans {
			out = append(out, span{ID: t.newID(), Parent: tp.pass.ID, Layer: s.layer, Name: s.name, Start: iv.lo, End: iv.hi})
		}
	}
	return out
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func perEvent(ns int64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(ns) / float64(events)
}
