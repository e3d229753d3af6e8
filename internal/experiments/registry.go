package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"memotable/internal/engine"
	"memotable/internal/imaging"
	"memotable/internal/isa"
	"memotable/internal/probe"
	"memotable/internal/report"
	"memotable/internal/workloads"
)

// The declarative experiment registry. Every table and figure of the
// evaluation — plus the extensions — is a registered Experiment value
// declaring its name, the operation classes it measures, and a Plan
// function. A plan splits the driver in two around the replay planner:
//
//   - the plan half builds the experiment's sinks and declares its trace
//     Demands (which workloads feed which sinks, in what order);
//   - the finish half reads the fed sinks and assembles a typed
//     report.Result tree.
//
// Run collects the demands of every selected experiment and hands them
// to the engine's cross-experiment planner (engine.RunPass) as one
// batch, so a workload shared by any number of selected experiments is
// captured once and replayed once, feeding all their sinks in a single
// fused pass — fusion no longer stops at driver boundaries.

// Scale bounds the image geometry the MM experiments run at. The paper
// traced full applications under Shade; we trade input size for wall
// clock without changing value behaviour (subsampling preserves the
// quantized histograms the hit ratios respond to).
type Scale int

// Scales.
const (
	// Tiny decimates inputs to 32 pixels per side: unit-test budget.
	Tiny Scale = iota
	// Quick decimates inputs to 64 pixels per side: interactive budget
	// (the memosim command's default).
	Quick
	// Full decimates inputs to 192 pixels per side: benchmark budget.
	Full
)

// ParseScale resolves the CLI and service spelling of a scale ("tiny",
// "quick", "full"; "" selects Quick, the interactive default).
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (have tiny, quick, full)", s)
}

// String returns the parseable spelling of the scale.
func (s Scale) String() string {
	switch s {
	case Full:
		return "full"
	case Quick:
		return "quick"
	default:
		return "tiny"
	}
}

// maxDim returns the per-side bound.
func (s Scale) maxDim() int {
	switch s {
	case Full:
		return 192
	case Quick:
		return 64
	default:
		return 32
	}
}

// catalogImage resolves a catalog input; unknown names are programming
// errors (the registry's input lists are static).
func catalogImage(name string) *imaging.Image {
	in := imaging.Find(name)
	if in == nil {
		panic("experiments: unknown input " + name)
	}
	return in.Image
}

// inputFor fetches and decimates a catalog input. The result is
// detached (no base address): plan-time consumers use it for values
// only, and capture-time consumers place it via AddressSpace.Decimate.
func inputFor(name string, scale Scale) *imaging.Image {
	return catalogImage(name).Decimate(scale.maxDim())
}

// Workload names one capturable operand stream for the planner: the
// engine cache key plus the capture that produces it.
type Workload = engine.PassWorkload

// Demand subscribes one group of an experiment's sinks to an ordered
// workload sequence. Stateful sinks (a TableSet aggregating an
// application over its inputs) rely on the order; single-workload
// demands impose no ordering constraints on the planner.
type Demand = engine.Subscription

// Plan is one experiment's planned run: its trace demands, and a finish
// function that assembles the typed result after every demand has been
// fed. Finish runs only after the whole selection's replay pass, and
// may run concurrently with other experiments' finishes.
type Plan struct {
	Demands []Demand
	Finish  func() *report.Result
}

// Experiment is one registered table or figure: its registry name, its
// human title, the operation classes it measures, and its plan
// function. Plan functions run serially across a selection and must not
// capture or replay anything themselves — that is the planner's job.
type Experiment struct {
	Name  string
	Title string
	Ops   []isa.Op
	Plan  func(ctx *Context) Plan
}

// Context carries the run-wide knobs a plan builds against: the engine
// (for finish-phase fan-out) and the input scale. The scale helpers
// live here so drivers share one decimation path instead of each
// re-deriving geometry bounds. A Context is also the scope within which
// plans share simulated structures (Feed); the zero value is ready to
// use, and one Context serves one planned pass.
type Context struct {
	Eng   *engine.Engine
	Scale Scale

	shared *interned // built by the first Feed
}

// MaxDim returns the per-side image bound of the run's scale.
func (c *Context) MaxDim() int { return c.Scale.maxDim() }

// Input fetches a catalog input decimated to the run's scale.
func (c *Context) Input(name string) *imaging.Image { return inputFor(name, c.Scale) }

// App resolves a Multi-Media application by name; unknown names are
// programming errors (the registry's app lists are static).
func (c *Context) App(name string) workloads.App {
	app, err := workloads.Lookup(name)
	if err != nil {
		panic(err)
	}
	return app
}

// AppWorkload names one (application, input) run at the run's scale.
func (c *Context) AppWorkload(app workloads.App, input string) Workload {
	return Workload{
		Key:     appKey(app.Name, input, c.Scale),
		Capture: captureOf(appRunner(app, input, c.Scale)),
	}
}

// AppWorkloads names an application's full default input list, in
// order — the sequence a stateful per-app sink must observe.
func (c *Context) AppWorkloads(app workloads.App) []Workload {
	ws := make([]Workload, len(app.Inputs))
	for i, input := range app.Inputs {
		ws[i] = c.AppWorkload(app, input)
	}
	return ws
}

// KernelWorkload names one scientific kernel run.
func (c *Context) KernelWorkload(name string, run func(*probe.Probe)) Workload {
	return Workload{Key: kernelKey(name), Capture: captureOf(kernelRunner(run))}
}

// registry holds the experiments by name.
var registry = map[string]Experiment{}

// Register adds an experiment; duplicate or empty names and nil plans
// are programming errors.
func Register(e Experiment) {
	if e.Name == "" || e.Plan == nil {
		panic("experiments: Register needs a name and a plan")
	}
	if _, dup := registry[e.Name]; dup {
		panic("experiments: duplicate experiment " + e.Name)
	}
	registry[e.Name] = e
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the registered experiments sorted by name.
func All() []Experiment {
	names := Names()
	exps := make([]Experiment, len(names))
	for i, n := range names {
		exps[i] = registry[n]
	}
	return exps
}

// Lookup resolves experiment names; no names selects the whole
// registry. Every unknown name is reported in one error, so a caller
// with a typo in position k learns about the one in position k+2 too.
func Lookup(names ...string) ([]Experiment, error) {
	if len(names) == 0 {
		return All(), nil
	}
	exps := make([]Experiment, 0, len(names))
	var unknown []string
	for _, n := range names {
		e, ok := registry[n]
		if !ok {
			unknown = append(unknown, fmt.Sprintf("%q", n))
			continue
		}
		exps = append(exps, e)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("experiments: unknown experiment(s) %s (have %s)",
			strings.Join(unknown, ", "), strings.Join(Names(), ", "))
	}
	return exps, nil
}

// Resolve validates a selection and returns its experiment names in
// selection order; no names resolves to the whole registry in Names()
// order. This is the canonical order sharding and merging agree on:
// the fleet coordinator splits Resolve's output, and the merged result
// list comes back in exactly this order.
func Resolve(names ...string) ([]string, error) {
	exps, err := Lookup(names...)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.Name
	}
	return out, nil
}

// ShardSelection deals a resolved selection into n round-robin shards:
// shard i gets names[i], names[i+n], ... in selection order. The split
// is a pure function of (names, n) — both sides of a distributed run
// recompute it independently and must agree — and it never produces an
// empty shard, because callers clamp n to len(names) first (ShardCount
// does exactly that).
func ShardSelection(names []string, n int) [][]string {
	if n < 1 {
		n = 1
	}
	shards := make([][]string, n)
	for i, name := range names {
		shards[i%n] = append(shards[i%n], name)
	}
	return shards
}

// ShardCount clamps a requested shard count to the selection size, so
// every shard has at least one experiment to run.
func ShardCount(requested, selection int) int {
	if requested > selection {
		return selection
	}
	return requested
}

// Run executes a selection of experiments (all of them when names is
// empty) as one planned pass: plan serially, capture and replay every
// demanded workload exactly once across the whole selection, then
// finish in parallel. Results are returned in selection order with
// their Name set from the registry. Run is the fail-fast entry point:
// any workload failure aborts the whole selection with that error —
// callers that want partial results use RunContext.
func Run(eng *engine.Engine, scale Scale, names ...string) ([]*report.Result, error) {
	results, rep, err := RunContext(context.Background(), eng, scale, names...)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// RunContext is Run with cooperative cancellation and degraded-mode
// results. The replay pass runs under ctx; workload failures (injected
// faults, panicking sinks, unreadable disk-tier entries, cancellation) do not
// abort the selection. Instead:
//
//   - an experiment none of whose demanded workloads failed finishes
//     normally and its Result is exact;
//   - an experiment that demanded a failed workload skips its finish —
//     its sinks saw a torn or missing stream — and yields a degraded
//     Result (an empty group carrying the RunErrors that poisoned it);
//   - a finish that panics yields a degraded Result too, instead of
//     killing the pool.
//
// The returned PassReport is the engine's cell-level account of the
// pass (nil only alongside a non-nil error); the error return is
// reserved for selection defects — unknown names, inconsistent demand
// orders — that prevent the pass from being planned at all.
func RunContext(ctx context.Context, eng *engine.Engine, scale Scale, names ...string) ([]*report.Result, *engine.PassReport, error) {
	exps, err := Lookup(names...)
	if err != nil {
		return nil, nil, err
	}
	ectx := &Context{Eng: eng, Scale: scale}
	plans := make([]Plan, len(exps))
	for i, ex := range exps {
		plans[i] = ex.Plan(ectx)
	}
	return runPlans(ctx, eng, exps, plans)
}

// runPlans is RunContext after planning: one pass over every plan's
// demands, then each experiment's finish or degraded result.
func runPlans(ctx context.Context, eng *engine.Engine, exps []Experiment, plans []Plan) ([]*report.Result, *engine.PassReport, error) {
	var subs []engine.Subscription
	for _, p := range plans {
		subs = append(subs, p.Demands...)
	}
	rep, err := eng.RunPassContext(ctx, subs)
	if err != nil {
		return nil, nil, err
	}
	results := make([]*report.Result, len(exps))
	eng.Map(len(exps), func(i int) {
		if errs := planErrors(plans[i], rep); len(errs) > 0 {
			results[i] = report.NewDegradedResult(exps[i].Name, errs)
			return
		}
		r, ferr := finishGuarded(plans[i].Finish)
		if ferr != nil {
			results[i] = report.NewDegradedResult(exps[i].Name,
				[]report.RunError{{Stage: "finish", Message: ferr.Error()}})
			return
		}
		if r != nil {
			r.Name = exps[i].Name
		}
		results[i] = r
	})
	return results, rep, nil
}

// planErrors maps a pass's cell failures onto one plan: the RunErrors
// for exactly the workload keys this plan demanded, in the report's
// (sorted, deterministic) order.
func planErrors(p Plan, rep *engine.PassReport) []report.RunError {
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
	return errs
}

// finishGuarded runs a plan's finish with panic isolation: a finish
// reading sinks in an unexpected state degrades its own experiment
// instead of crashing the run.
func finishGuarded(finish func() *report.Result) (r *report.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("finish panicked: %v", rec)
		}
	}()
	return finish(), nil
}

// runPlan drives one driver's plan standalone: the typed extension entry
// points and the package tests run through it, so they share the
// planner path — and its exactly-once guarantee — with Run.
func runPlan[T any](eng *engine.Engine, scale Scale, plan func(*Context) ([]Demand, func() T)) T {
	ctx := &Context{Eng: eng, Scale: scale}
	demands, finish := plan(ctx)
	if err := eng.RunPass(demands); err != nil {
		panic(err)
	}
	return finish()
}

// register wires a typed driver plan into the registry: the typed
// finish is adapted to the report.Result the registry returns.
func register[T interface{ Result() *report.Result }](
	name, title string, ops []isa.Op, plan func(*Context) ([]Demand, func() T)) {
	Register(Experiment{
		Name:  name,
		Title: title,
		Ops:   ops,
		Plan: func(ctx *Context) Plan {
			demands, finish := plan(ctx)
			return Plan{Demands: demands, Finish: func() *report.Result { return finish().Result() }}
		},
	})
}
