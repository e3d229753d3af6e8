// Package memotable is a library-level reproduction of "Accelerating
// Multi-Media Processing by Implementing Memoing in Multiplication and
// Division Units" (Citron, Feitelson, Rudolph; ASPLOS 1998).
//
// A MEMO-TABLE is a small cache-like lookup table attached to a
// multi-cycle computation unit (integer multiplier, floating-point
// multiplier, divider, square root). Operands are presented to the table
// and the unit in parallel: a tag hit returns the previously computed
// result in one cycle and aborts the unit; a miss costs nothing extra and
// the completed result is inserted for future reuse.
//
// This package is the public facade over the internal implementation:
//
//   - MEMO-TABLE construction and memo-enhanced units (NewTable, NewUnit);
//   - operand trace capture and replay in the role the paper's Shade
//     tracing played (Capture, Replay);
//   - the paper's full experiment suite (Tables 5–13, Figures 2–4) as a
//     declarative registry (Experiments, Run), with per-experiment text
//     via RunExperiment;
//   - the cycle simulator used for the speedup studies (cpu, via the
//     experiments drivers).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results against the paper's.
package memotable

import (
	"context"
	"io"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/fleet"
	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/probe"
	"memotable/internal/provenance"
	"memotable/internal/report"
	"memotable/internal/service"
	"memotable/internal/trace"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Table is a MEMO-TABLE (§2.1 of the paper).
	Table = memo.Table
	// Config selects table geometry and tagging scheme.
	Config = memo.Config
	// Unit couples a computation unit with its MEMO-TABLE (Figure 1).
	Unit = memo.Unit
	// Stats carries a table's hit/miss/trivial counters.
	Stats = memo.Stats
	// TrivialPolicy selects trivial-operand handling (Table 9).
	TrivialPolicy = memo.TrivialPolicy
	// Outcome reports how a memo-enhanced operation completed.
	Outcome = memo.Outcome
	// Op is an operation class.
	Op = isa.Op
	// Probe is the instrumented arithmetic layer workloads compute
	// through.
	Probe = probe.Probe
)

// Operation classes.
const (
	IMul  = isa.OpIMul
	FMul  = isa.OpFMul
	FDiv  = isa.OpFDiv
	FSqrt = isa.OpFSqrt
)

// Trivial-operation policies.
const (
	CacheAll       = memo.CacheAll
	NonTrivialOnly = memo.NonTrivialOnly
	Integrated     = memo.Integrated
)

// Outcomes.
const (
	Miss    = memo.Miss
	Hit     = memo.Hit
	Trivial = memo.Trivial
	Bypass  = memo.Bypass
)

// Shared is a multi-ported MEMO-TABLE serving several computation units
// (§2.3).
type Shared = memo.Shared

// NewShared wraps a table for multi-ported use.
func NewShared(table *Table, ports int) *Shared { return memo.NewShared(table, ports) }

// Engine is the parallel experiment engine: a bounded worker pool that
// runs each workload straight into the sinks of every table
// configuration that consumes it. Engine.ReplayAll feeds several
// configurations' sinks from one run of the workload. Experiment output
// is bit-identical at any worker count.
type Engine = engine.Engine

// CaptureFunc runs a workload, emitting its operand trace into a sink;
// it is what Engine.Replay runs.
type CaptureFunc = engine.CaptureFunc

// NewEngine builds an engine with the given worker count; workers <= 0
// selects GOMAXPROCS.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// IngestOptions configures a live trace ingestion session
// (Engine.NewIngest): an external producer pushes encoded v2 stream bytes
// as it generates them, and complete frames replay incrementally into
// the session's sinks.
type IngestOptions = engine.IngestOptions

// IngestStats is a point-in-time view of an ingest session's progress.
type IngestStats = engine.IngestStats

// IngestResult reports a sealed ingest session's final progress.
type IngestResult = engine.IngestResult

// LiveBank bundles the rolling instruments of a live ingest session —
// MEMO-TABLE banks, a cycle tally priced on baseline and memo-enhanced
// machines, and a bounded-memory reuse-ratio sketch — behind one sink
// list with typed report snapshots.
type LiveBank = experiments.LiveBank

// NewLiveBank builds a live bank with the paper's study defaults (the
// fast-FP machine, 32x4 tables, trivial operations excluded), seeding
// the sketch estimator deterministically.
func NewLiveBank(seed uint64) *LiveBank { return experiments.NewDefaultLiveBank(seed) }

// Paper32x4 returns the paper's basic configuration: 32 entries in sets
// of 4, full-value tags.
func Paper32x4() Config { return memo.Paper32x4() }

// Infinite returns the idealized unbounded fully associative table.
func Infinite() Config { return memo.Infinite() }

// NewTable builds a MEMO-TABLE for an operation class.
func NewTable(op Op, cfg Config) *Table { return memo.New(op, cfg) }

// NewUnit wires a MEMO-TABLE to its computation unit. A nil compute
// function uses host arithmetic.
func NewUnit(table *Table, policy TrivialPolicy, compute func(a, b uint64) uint64) *Unit {
	return memo.NewUnit(table, policy, compute)
}

// NewProbe builds an instrumentation probe feeding the given sinks.
func NewProbe(sinks ...trace.Sink) *Probe { return probe.New(sinks...) }

// Capture runs an instrumented program and streams its operand trace to
// w in binary trace format v2, returning the event count. Events are
// grouped into CRC32C-checksummed frames, DEFLATE-compressed when
// compress is set, so torn or corrupted files are detected on read.
func Capture(w io.Writer, compress bool, run func(*Probe)) (uint64, error) {
	tw, err := trace.NewWriterV2(w, compress)
	if err != nil {
		return 0, err
	}
	run(probe.New(tw))
	if err := tw.Close(); err != nil {
		return tw.Count(), err
	}
	return tw.Count(), nil
}

// Replay streams a captured trace through MEMO-TABLEs built from cfg and
// returns the per-class hit statistics. It reads both trace formats: v2,
// which Capture writes, and the older unframed v1.
func Replay(r io.Reader, cfg Config, policy TrivialPolicy) (map[Op]Stats, error) {
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	set := experiments.NewTableSet(cfg, policy)
	if _, err := tr.ReplayBatch(set); err != nil {
		return nil, err
	}
	out := make(map[Op]Stats)
	for _, op := range experiments.MemoOps {
		if u := set.Unit(op); u != nil && u.TotalOps() > 0 {
			out[op] = u.Table().Stats()
		}
	}
	return out, nil
}

// Scale selects experiment input sizes.
type Scale = experiments.Scale

// Scales.
const (
	Tiny  = experiments.Tiny
	Quick = experiments.Quick
	Full  = experiments.Full
)

// Experiment is one registered table or figure of the evaluation: its
// name, title, measured operation classes, and plan function. The full
// registry lives in internal/experiments; every entry is runnable by
// name through Run.
type Experiment = experiments.Experiment

// Result is a typed experiment result tree; render it with RenderText or
// RenderJSONArray.
type Result = report.Result

// Experiments lists the runnable experiment names, sorted.
func Experiments() []string { return experiments.Names() }

// AllExperiments returns the registered experiments sorted by name.
func AllExperiments() []Experiment { return experiments.All() }

// Run executes a selection of experiments (all of them when names is
// empty) as one planned pass: every workload the selection demands runs
// once, feeding all subscribed experiments' sinks in a single fused
// pass. Results are
// returned in selection order. All unknown names are reported in one
// error.
func Run(eng *Engine, scale Scale, names ...string) ([]*Result, error) {
	return experiments.Run(eng, scale, names...)
}

// PassReport is the cell-level account of one replay pass: which
// workload cells failed, on which execution edge, and whether the pass
// was cut short by cancellation. RunContext returns one per invocation.
type PassReport = engine.PassReport

// ErrBadTrace reports a corrupt or truncated trace stream: bad magic,
// torn frame, CRC mismatch. Replay errors wrap it, so callers can
// distinguish corruption from plain I/O failure with errors.Is.
var ErrBadTrace = trace.ErrBadTrace

// RunContext is Run with cooperative cancellation and degraded-mode
// results: workload failures do not abort the selection. Experiments
// untouched by any failure return exact Results; an experiment that
// demanded a failed workload returns a degraded Result carrying the
// workload errors that poisoned it (rendered by RenderText and
// RenderJSONArray as an errors section). The PassReport is the engine's
// cell-level account of the pass: each failed cell with its stage and
// cause. The error return is reserved for selection defects that prevent
// planning entirely.
func RunContext(ctx context.Context, eng *Engine, scale Scale, names ...string) ([]*Result, *PassReport, error) {
	return experiments.RunContext(ctx, eng, scale, names...)
}

// RenderText renders a result as the paper-style text table.
func RenderText(r *Result) string { return report.Text(r) }

// RunExperiment reproduces one of the paper's tables or figures on the
// reference serial path and returns its rendered text.
func RunExperiment(name string, scale Scale) (string, error) {
	eng := engine.Serial()
	defer func() { _ = eng.Close() }()
	return RunExperimentWith(eng, name, scale)
}

// RunExperimentWith runs one experiment on the given engine and returns
// its rendered text. Output is identical to RunExperiment for any worker
// count. To run several experiments with each shared workload run once
// for all of them, use Run.
func RunExperimentWith(eng *Engine, name string, scale Scale) (string, error) {
	results, err := Run(eng, scale, name)
	if err != nil {
		return "", err
	}
	return report.Text(results[0]), nil
}

// ParseScale resolves the CLI and service spelling of a scale ("tiny",
// "quick", "full"; "" selects Quick).
func ParseScale(s string) (Scale, error) { return experiments.ParseScale(s) }

// RenderJSONArray renders a selection's results as the JSON array
// `memosim -json` prints — the byte layout the HTTP front-end serves
// and CI diffs against offline output.
func RenderJSONArray(results []*Result) ([]byte, error) { return report.JSONArray(results) }

// EngineStats is the flat snapshot of every engine counter
// (Engine.Stats). The name leaves Stats for the
// MEMO-TABLE hit counters, which carried it first.
type EngineStats = engine.Stats

// Service is the multi-tenant front-end over one shared engine: per-
// tenant sessions, admission control, and coalescing of identical
// concurrent selections. Serve it over HTTP
// with Service.Handler (the `memosim -serve` daemon).
type Service = service.Service

// ServiceConfig shapes a Service (admission bounds, run timeout); zero
// values select defaults.
type ServiceConfig = service.Config

// NewService builds a Service over an engine the caller configured;
// the Service owns the engine from here (Service.Close closes it).
func NewService(eng *Engine, cfg ServiceConfig) *Service { return service.New(eng, cfg) }

// FleetConfig shapes a sharded fleet run (`memosim -shards`): the worker
// executable, the shard count, the selection, and the supervision knobs
// (per-attempt timeout, bounded jittered retries).
type FleetConfig = fleet.Config

// FleetReport is a completed fleet run: per-shard outcomes plus the
// combined provenance root. Its merge methods reassemble output
// byte-identical to a single-process run for every clean cell.
type FleetReport = fleet.Report

// RunFleet executes a selection across supervised worker subprocesses
// and returns the merged, provenance-verified report. Shard failures
// degrade their own cells; the error return is reserved for
// misconfiguration.
func RunFleet(ctx context.Context, cfg FleetConfig) (*FleetReport, error) {
	return fleet.Run(ctx, cfg)
}

// ErrProvenance marks fleet worker output that failed provenance
// verification — a tampered result cell, a dropped trace fingerprint, a
// stale shard assignment, or a forged root. Classify with errors.Is.
var ErrProvenance = provenance.ErrProvenance
