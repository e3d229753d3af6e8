// Package faults is a process-wide fault-injection registry. Production
// code threads named injection points through its I/O and compute edges
// (faults.Inject(faults.StoreWrite) before a trace-store entry write, for
// instance); a test or a soak run activates a Plan describing which
// points should fail, how often, and how — as a returned error or as a
// panic. With no plan active every injection point is a single atomic
// load, so the points can stay compiled into release binaries.
//
// Plans are deterministic: a rule's probabilistic decisions are a pure
// hash of (plan seed, point name, per-point hit index), so two runs of
// the same workload sequence observe the same fault pattern at every
// point — the property the golden-pinned soak tests rely on. Under
// concurrency the assignment of hit indices to goroutines can vary, but
// the set of fired hits per point does not.
//
// Plans parse from a compact spec (the FAULTS environment variable and
// the -faults CLI flag use the same grammar):
//
//	spec   := clause (';' clause)*
//	clause := "seed=" uint
//	        | point [':' param]...
//	param  := "p=" float    fire probability per hit (default 1)
//	        | "count=" int  fire at most this many times (default unlimited)
//	        | "after=" int  skip the first N hits of the point (default 0)
//	        | "error"       injected failure returns an error (default)
//	        | "panic"       injected failure panics with a *Fault
//
// Example: "seed=7;store.write:p=0.01;engine.sink.emit:count=1:panic"
package faults

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// The injection-point catalog. Every point threaded through the engine
// and trace layers is named here; Parse rejects unknown points so a typo
// in a FAULTS spec fails loudly instead of silently injecting nothing.
const (
	// CaptureRun fires when a workload is about to run into its sinks.
	// Error mode fails the run; panic mode simulates the workload itself
	// panicking.
	CaptureRun = "engine.capture.run"
	// FrameCRC fires when a v2 trace frame's checksum is about to be
	// accepted: an injected failure reports the frame as corrupt.
	FrameCRC = "trace.frame.crc"
	// SinkEmit fires once per batch delivered to a workload run's or an
	// ingest session's sinks: each blockLen batch of a run, each ingest
	// frame. Panic mode simulates a panicking measurement sink.
	SinkEmit = "engine.sink.emit"
	// IngestFeed fires on each chunk of bytes fed into a live ingest
	// session. Error mode fails the feed, aborting the session as a
	// dropped connection would.
	IngestFeed = "ingest.feed"
	// IngestFrame fires when a complete, checksum-verified streamed frame
	// is about to be delivered to the ingest session's sinks.
	IngestFrame = "ingest.frame"
	// IngestSeal fires when an ingest session whose stream ended at a
	// clean frame boundary is about to be sealed. Error mode fails the
	// seal; the frames already delivered stay delivered.
	IngestSeal = "ingest.seal"
	// StoreRead fires before a trace-store entry is looked up, and
	// before one is opened and mapped for a read (internal/tracestore).
	// Error mode makes the lookup a miss and the read a failure.
	StoreRead = "store.read"
	// StoreWrite fires before each write to a trace-store temp file.
	StoreWrite = "store.write"
	// StoreRename fires before a sealed store temp file is renamed to
	// its content-addressed name.
	StoreRename = "store.rename"
	// ServiceAdmit fires when the service front-end is about to admit a
	// run request. Error mode rejects the request as the admission
	// controller would under overload (HTTP 429).
	ServiceAdmit = "service.admit"
	// ServiceRun fires when an admitted run is about to execute on the
	// shared engine. Error mode fails the request (HTTP 500); every
	// coalesced follower of the run observes the same failure.
	ServiceRun = "service.run"
	// ServiceRender fires when a completed run's results are about to be
	// rendered for the HTTP response. Error mode fails rendering for
	// that request alone (HTTP 500).
	ServiceRender = "service.render"
	// FleetSpawn fires when the fleet coordinator is about to launch a
	// worker process for a shard attempt. Error mode fails the attempt
	// as an exec failure would; the shard's bounded retry covers it.
	FleetSpawn = "fleet.spawn"
	// FleetCollect fires when a worker has exited and its manifest is
	// about to be decoded. Error mode discards the attempt's output, as
	// a torn pipe would.
	FleetCollect = "fleet.collect"
	// FleetVerify fires before a decoded shard manifest's provenance is
	// recomputed. Error mode fails the attempt before verification, so
	// the shard retries on a fresh worker.
	FleetVerify = "fleet.verify"
)

// Points returns the injection-point catalog, sorted.
func Points() []string {
	pts := []string{
		CaptureRun,
		FrameCRC, SinkEmit,
		IngestFeed, IngestFrame, IngestSeal,
		StoreRead, StoreWrite, StoreRename,
		ServiceAdmit, ServiceRun, ServiceRender,
		FleetSpawn, FleetCollect, FleetVerify,
	}
	sort.Strings(pts)
	return pts
}

// knownPoint reports whether name is in the catalog.
func knownPoint(name string) bool {
	for _, p := range Points() {
		if p == name {
			return true
		}
	}
	return false
}

// ErrInjected is the sentinel every injected error wraps; callers
// classify injected faults with errors.Is(err, faults.ErrInjected).
var ErrInjected = errors.New("injected fault")

// Fault is one injected failure: the point it fired at and the point's
// hit index that triggered it. It is both the error returned in error
// mode and the panic value in panic mode.
type Fault struct {
	Point string
	Hit   int64
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("injected fault at %s (hit %d)", f.Point, f.Hit)
}

// Unwrap makes every Fault errors.Is-able against ErrInjected.
func (f *Fault) Unwrap() error { return ErrInjected }

// Mode selects how a rule's faults manifest.
type Mode uint8

// Modes.
const (
	// ModeError returns the *Fault from Inject.
	ModeError Mode = iota
	// ModePanic panics with the *Fault.
	ModePanic
)

// Rule arms one injection point: fire with probability Prob on each hit
// past the first After, at most Count times (0 = unlimited), in the
// given Mode.
type Rule struct {
	Point string
	Prob  float64
	Count int64
	After int64
	Mode  Mode
}

// armedRule is a Rule plus its runtime counters.
type armedRule struct {
	Rule
	hits  atomic.Int64 // hits observed at the rule's point
	fired atomic.Int64 // faults this rule has injected
}

// Plan is an activatable set of rules. Build one with New or Parse and
// install it with Activate; a nil Plan injects nothing.
type Plan struct {
	Seed  uint64
	rules map[string][]*armedRule
	fired atomic.Int64
}

// New builds a plan from rules with the given seed. Unknown points and
// out-of-range probabilities are rejected.
func New(seed uint64, rules ...Rule) (*Plan, error) {
	p := &Plan{Seed: seed, rules: make(map[string][]*armedRule)}
	for _, r := range rules {
		if !knownPoint(r.Point) {
			return nil, fmt.Errorf("faults: unknown injection point %q (have %s)",
				r.Point, strings.Join(Points(), ", "))
		}
		if math.IsNaN(r.Prob) || r.Prob < 0 || r.Prob > 1 {
			return nil, fmt.Errorf("faults: point %s: probability %v out of [0,1]", r.Point, r.Prob)
		}
		if r.Prob == 0 {
			r.Prob = 1 // unset in a spec: fire on every eligible hit
		}
		p.rules[r.Point] = append(p.rules[r.Point], &armedRule{Rule: r})
	}
	return p, nil
}

// Parse builds a plan from the spec grammar in the package comment.
func Parse(spec string) (*Plan, error) {
	var seed uint64
	var rules []Rule
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			s, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", rest, err)
			}
			seed = s
			continue
		}
		parts := strings.Split(clause, ":")
		r := Rule{Point: parts[0]}
		for _, param := range parts[1:] {
			switch {
			case param == "error":
				r.Mode = ModeError
			case param == "panic":
				r.Mode = ModePanic
			case strings.HasPrefix(param, "p="), strings.HasPrefix(param, "prob="):
				v, err := strconv.ParseFloat(param[strings.Index(param, "=")+1:], 64)
				if err != nil {
					return nil, fmt.Errorf("faults: %s: bad probability %q", r.Point, param)
				}
				r.Prob = v
			case strings.HasPrefix(param, "count="):
				v, err := strconv.ParseInt(param[len("count="):], 10, 64)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("faults: %s: bad count %q", r.Point, param)
				}
				r.Count = v
			case strings.HasPrefix(param, "after="):
				v, err := strconv.ParseInt(param[len("after="):], 10, 64)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("faults: %s: bad after %q", r.Point, param)
				}
				r.After = v
			default:
				return nil, fmt.Errorf("faults: %s: unknown parameter %q", r.Point, param)
			}
		}
		rules = append(rules, r)
	}
	return New(seed, rules...)
}

// FromEnv parses the FAULTS environment variable; an empty or unset
// variable yields a nil plan (nothing injected).
func FromEnv() (*Plan, error) {
	spec := os.Getenv("FAULTS")
	if spec == "" {
		return nil, nil
	}
	return Parse(spec)
}

// Fired returns how many faults the plan has injected so far.
func (p *Plan) Fired() int64 { return p.fired.Load() }

// active is the process-wide installed plan.
var active atomic.Pointer[Plan]

// Activate installs a plan process-wide; nil deactivates injection.
func Activate(p *Plan) { active.Store(p) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Inject consults the active plan at a named point. With no plan (or no
// rule for the point) it returns nil. A firing error-mode rule returns a
// *Fault wrapping ErrInjected; a firing panic-mode rule panics with the
// *Fault.
func Inject(point string) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.inject(point)
}

func (p *Plan) inject(point string) error {
	for _, r := range p.rules[point] {
		hit := r.hits.Add(1)
		if hit <= r.After {
			continue
		}
		if r.Prob < 1 && !decide(p.Seed, point, hit, r.Prob) {
			continue
		}
		if r.Count > 0 && r.fired.Add(1) > r.Count {
			continue
		}
		p.fired.Add(1)
		f := &Fault{Point: point, Hit: hit}
		if r.Mode == ModePanic {
			panic(f)
		}
		return f
	}
	return nil
}

// decide maps (seed, point, hit) to a uniform [0,1) draw via a
// splitmix64-style mix of an FNV hash, so fault patterns are a pure
// function of the plan seed and the point's hit sequence.
func decide(seed uint64, point string, hit int64, prob float64) bool {
	h := uint64(14695981039346656037)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= 1099511628211
	}
	h ^= seed + uint64(hit)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < prob
}
