// Command memobench is the repository's end-to-end and per-layer
// benchmark: the paper's experiment matrix run cold, warm and
// overflowing, plus the /v1/run service under a closed client loop.
// See README.md for the workloads, the metrics and how to read them.
//
// Run it from the checkout root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload tiny-warm --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -compare before/ after/
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many extra processes a tiny-cold run starts only to
// time their set-up.
const setupProbes = 5

// runDeadline bounds one workload's run: a run that has not finished by
// then kills its child and exits without a result.
const runDeadline = 175 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// params are the parent's settings for one invocation. Paths are
// relative to the checkout root, the working directory bench/run.sh
// sets.
type params struct {
	spec     *benchSpec
	seed     int64
	seconds  float64
	traced   bool
	golden   string
	out      string
	self     string // this binary, re-executed as the child
	deadline context.Context
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("memobench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: tiny-cold, tiny-warm, quick-warm, serve-tiny, or all")
	seed := fs.Int64("seed", 1, "seed for the experiment order of each pass and each client's request sequence")
	secs := fs.Int("seconds", 15, "how long each workload's timed section runs at least")
	traceMode := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for results files and spans.json")
	golden := fs.String("golden", filepath.Join("testdata", "golden"), "directory of tiny-scale experiment goldens")
	compare := fs.Bool("compare", false, "compare two sets of results files: -compare A B, each a results file or a directory of them")
	child := fs.String("child", "", "internal: run as a child process of this kind (matrix, sweep, serve)")
	dir := fs.String("dir", "", "internal: the child's private work directory")
	index := fs.Int("index", 0, "internal: the child's number within its run")
	setupOnly := fs.Bool("setup-only", false, "internal: the child stops where its timed section would start")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "memobench: -trace takes 0 or 1")
		return 2
	}
	if *child != "" {
		o := childOpts{workload: *workload, seed: *seed, seconds: float64(*secs), traced: *traceMode == 1,
			index: *index, dir: *dir, golden: *golden, setupOnly: *setupOnly}
		if err := childMain(*child, o, os.Stdin, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "memobench child:", err)
			return 1
		}
		return 0
	}

	spec, err := loadSpec(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "memobench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "memobench: -compare takes two results sets")
			return 2
		}
		return runCompare(spec, fs.Arg(0), fs.Arg(1), stdout)
	}
	var workloads []string
	if *workload == "all" {
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	} else if spec.hasWorkload(*workload) {
		workloads = []string{*workload}
	} else {
		fmt.Fprintf(os.Stderr, "memobench: unknown workload %q\n", *workload)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "memobench:", err)
		return 2
	}
	p := &params{spec: spec, seed: *seed, seconds: float64(*secs), traced: *traceMode == 1,
		golden: *golden, out: *out, self: self}

	exit := 0
	for _, w := range workloads {
		ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
		p.deadline = ctx
		o, err := p.runWorkload(w)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "memobench: %s: %v\n", w, err)
			return 1
		}
		if err := p.report(w, o, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "memobench:", err)
			return 1
		}
		if o.failed > 0 {
			exit = 1
		}
	}
	return exit
}

// childMain runs one child and writes its final line.
func childMain(kind string, o childOpts, in io.Reader, out io.Writer) error {
	t := newTracer()
	enc := json.NewEncoder(out)
	var res *childResult
	var err error
	switch kind {
	case "matrix":
		res, err = runMatrixChild(o, t)
	case "sweep":
		res, err = runSweepChild(o)
	case "serve":
		res, err = runServeChild(o, t, in, enc)
	default:
		err = fmt.Errorf("unknown child kind %q", kind)
	}
	if err != nil {
		return err
	}
	_, res.RSSMiB = rusage()
	res.Spans = append(res.Spans, t.take()...)
	return enc.Encode(res)
}

// outcome is one workload's aggregated run.
type outcome struct {
	metrics   map[string]float64
	attempted int
	failed    int
	errors    []string
	samples   map[string][]float64
	counts    map[string]float64
	passes    []passSummary
	runStarts []int64
	reps      int
	spans     []span
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}}
}

func (o *outcome) add(name string, v float64) { o.samples[name] = append(o.samples[name], v) }

func (o *outcome) absorb(c *childResult) {
	o.attempted += c.Attempted
	o.failed += c.Failed
	o.errors = append(o.errors, c.Errors...)
	o.spans = append(o.spans, c.Spans...)
}

func (p *params) runWorkload(w string) (*outcome, error) {
	if err := os.MkdirAll(filepath.Join(".bench_build", "tmp"), 0o755); err != nil {
		return nil, err
	}
	var o *outcome
	var err error
	if w == "serve-tiny" {
		o, err = p.runServe()
	} else {
		o, err = p.runMatrix(w)
	}
	if err != nil {
		return nil, err
	}
	if p.traced {
		sw, _, err := p.child("sweep", w, 0)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		for k, v := range sw.Layers {
			o.metrics[k] = v
		}
	}
	// A traced run reports every per-layer metric; those a workload has
	// no call for (service handler times on a matrix workload, pass spans
	// on the service) or no samples for read 0.
	for _, m := range p.spec.metrics(p.traced) {
		if v, ok := o.metrics[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.metrics[m.Name] = 0
		}
	}
	return o, nil
}

// child runs one child process to completion and returns its report
// and when it was spawned.
func (p *params) child(kind, w string, index int, extra ...string) (*childResult, int64, error) {
	cmd, dir, err := p.command(kind, w, index, extra...)
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	var stdout strings.Builder
	cmd.Stdout = &stdout
	spawned := time.Now().UnixNano()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", kind, err)
	}
	var res childResult
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
		return nil, 0, fmt.Errorf("%s child output: %w", kind, err)
	}
	return &res, spawned, nil
}

// command builds a child invocation with its own work directory.
func (p *params) command(kind, w string, index int, extra ...string) (*exec.Cmd, string, error) {
	dir, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), w+"-")
	if err != nil {
		return nil, "", err
	}
	trace := "0"
	if p.traced {
		trace = "1"
	}
	args := []string{"-child", kind, "-workload", w, "-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.Itoa(int(p.seconds)), "-trace", trace, "-index", strconv.Itoa(index),
		"-dir", dir, "-golden", p.golden}
	cmd := exec.CommandContext(p.deadline, p.self, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	return cmd, dir, nil
}

func lastLine(s string) string {
	s = strings.TrimRight(s, "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// runMatrix runs a matrix workload's children. tiny-cold starts one
// process per pass; the warm workloads run all their passes in one.
func (p *params) runMatrix(w string) (*outcome, error) {
	o := newOutcome()
	_, warm := workloadScale(w)
	start := time.Now()
	var passes []passResult
	for i := 0; ; i++ {
		c, spawned, err := p.child("matrix", w, i)
		if err != nil {
			return nil, err
		}
		o.absorb(c)
		o.add("setup_s", seconds(c.TimedStartNS-spawned))
		o.add("peak_rss_mb", c.RSSMiB)
		passes = append(passes, c.Passes...)
		if warm {
			break
		}
		if enoughPasses(w, i+1, time.Since(start).Seconds(), p.seconds, p.traced) {
			break
		}
	}
	if !warm {
		// A cold set-up takes milliseconds, so one run sets up several
		// more times to give its median something to stand on.
		for i := 0; i < setupProbes; i++ {
			c, spawned, err := p.child("matrix", w, 0, "-setup-only")
			if err != nil {
				return nil, err
			}
			o.add("setup_s", seconds(c.TimedStartNS-spawned))
		}
	}

	var traced []map[string]float64
	var tracedWall, wall []float64
	for i, pr := range passes {
		o.runStarts = append(o.runStarts, pr.StartNS)
		o.passes = append(o.passes, passSummary{Traced: pr.Traced, WallS: pr.WallS, Counts: pr.Counts})
		if pr.Traced {
			// The untraced pass before it ran the same order: wrapping the
			// sinks and captures must not move a single exact counter.
			for _, k := range exactCounts {
				if k != "failed" && pr.Counts[k] != passes[i-1].Counts[k] {
					o.failed++
					o.errors = append(o.errors, fmt.Sprintf("traced pass %s %v, untraced %v", k, pr.Counts[k], passes[i-1].Counts[k]))
				}
			}
			traced = append(traced, pr.Layers)
			tracedWall = append(tracedWall, pr.WallS)
			continue
		}
		wall = append(wall, pr.WallS)
		o.add("matrix_s", pr.WallS)
		o.add("cpu_s", pr.CPUS)
		o.add("sim_events_per_s", float64(pr.Events)/pr.WallS)
		if o.counts == nil {
			o.counts = maps.Clone(pr.Counts)
		}
	}
	o.reps = len(wall)
	o.counts["failed"] = float64(o.failed)
	o.endToEnd()
	if p.traced {
		o.metrics = medianLayers(traced)
		o.metrics["bench.trace_overhead"] = median(tracedWall)/median(wall) - 1
	}
	return o, nil
}

// endToEnd reduces the samples to the end-to-end metrics, the median of
// each per-pass (or per-process) figure.
func (o *outcome) endToEnd() {
	for _, k := range []string{"matrix_s", "cpu_s", "sim_events_per_s", "setup_s", "peak_rss_mb"} {
		o.metrics[k] = median(o.samples[k])
	}
}

// medianLayers takes each per-layer metric's median across traced
// passes.
func medianLayers(passes []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range passes {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, vs := range vals {
		out[k] = median(vs)
	}
	return out
}

// report prints a workload's metrics for people, writes its results
// file, and prints the result line.
func (p *params) report(w string, o *outcome, stdout io.Writer) error {
	mode := "untraced"
	if p.traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "%s  seed %d  %s  (%d timed units)\n", w, p.seed, mode, o.reps)
	type metricValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricValue)
	for _, m := range p.spec.metrics(p.traced) {
		v := o.metrics[m.Name]
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "  %-40s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if lat := o.samples["request_ms"]; len(lat) > 0 {
		p50, _ := percentile(lat, 50)
		p90, beyond := percentile(lat, 90)
		fmt.Fprintf(stdout, "  request latency: p50 %.1f ms, p90 %.1f ms (n=%d, %d beyond p90)\n", p50, p90, len(lat), beyond)
	}
	for _, e := range o.errors {
		fmt.Fprintln(stdout, "  FAILED:", e)
	}
	errorRate := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(stdout, "  error_rate %.4g (%d failed of %d attempted)\n", errorRate, o.failed, o.attempted)

	if err := p.writeResults(w, o, errorRate); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{o.failed == 0, max(o.attempted, 1), o.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// provenance stamps a results file with where and when it was measured.
type provenance struct {
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Dirty      bool     `json:"dirty"`
	Seed       int64    `json:"seed"`
	Reps       int      `json:"reps"`
	RunStarts  []string `json:"run_starts"`
}

// resultsFile is what one workload's run leaves in the results
// directory, and what -compare reads back.
type resultsFile struct {
	Provenance provenance           `json:"provenance"`
	Workload   string               `json:"workload"`
	Seconds    float64              `json:"seconds"`
	Traced     bool                 `json:"traced"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	ErrorRate  float64              `json:"error_rate"`
	Errors     []string             `json:"errors,omitempty"`
	Metrics    map[string]float64   `json:"metrics"`
	Counts     map[string]float64   `json:"counts,omitempty"`
	Samples    map[string][]float64 `json:"samples"`
	Passes     []passSummary        `json:"passes,omitempty"`
}

// passSummary is one timed pass's wall time and engine counters.
type passSummary struct {
	Traced bool               `json:"traced"`
	WallS  float64            `json:"wall_s"`
	Counts map[string]float64 `json:"counts"`
}

func (p *params) writeResults(w string, o *outcome, errorRate float64) error {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	commit, dirty := gitCommit()
	prov := provenance{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Dirty: dirty, Seed: p.seed, Reps: o.reps}
	sort.Slice(o.runStarts, func(i, j int) bool { return o.runStarts[i] < o.runStarts[j] })
	for _, ns := range o.runStarts {
		prov.RunStarts = append(prov.RunStarts, time.Unix(0, ns).UTC().Format(time.RFC3339Nano))
	}
	rf := resultsFile{Provenance: prov, Workload: w, Seconds: p.seconds, Traced: p.traced,
		Attempted: o.attempted, Failed: o.failed, ErrorRate: errorRate, Errors: o.errors,
		Metrics: o.metrics, Counts: o.counts, Samples: o.samples, Passes: o.passes}
	name := fmt.Sprintf("%s.seed%d", w, p.seed)
	if p.traced {
		name += ".trace"
		if err := writeJSON(filepath.Join(p.out, name+".spans.json"), o.spans); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(p.out, name+".json"), rf)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit returns HEAD and whether the work tree differs from it, or
// "unknown" outside a git checkout. It looks only at the checkout's own
// .git, so a checkout without one never reads a repository above it.
func gitCommit() (string, bool) {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown", false
	}
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	return strings.TrimSpace(string(head)), err != nil || len(status) > 0
}

// baseline is bench/baseline.json: the recorded reference numbers and
// the quick-scale pass digest the quick-warm workload checks against.
type baseline struct {
	QuickSHA256 string `json:"quick_sha256"`
}

func loadBaseline() (*baseline, error) {
	data, err := os.ReadFile(filepath.Join("bench", "baseline.json"))
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench/baseline.json: %w", err)
	}
	return &b, nil
}
