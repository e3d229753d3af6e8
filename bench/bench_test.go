package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
	"memotable/internal/trace"
)

func TestMedianAndQuartiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(ten); m != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 1..3 = %v, want 2", m)
	}
	// statistics.quantiles([1..10], n=4) and quantiles([1, 2, 3, 4], n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{ten, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if s := spread(ten); math.Abs(s-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v", s)
	}
	if ten[0] != 10 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{{50, 10, 10}, {90, 18, 2}, {100, 20, 0}, {1, 1, 19}} {
		if v, beyond := percentile(xs, c.p); v != c.v || beyond != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.v, c.beyond)
		}
	}
	// The "at least ten beyond" rule: 200 samples support p95, 199 do
	// not; 100 support p90, 96 do not.
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{200, 95, 10}, {199, 95, 9}, {100, 90, 10}, {96, 90, 9}} {
		xs := make([]float64, c.n)
		if _, beyond := percentile(xs, c.p); beyond != c.beyond {
			t.Errorf("n=%d p%v: %d beyond, want %d", c.n, c.p, beyond, c.beyond)
		}
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	parent := interval{100, 200}
	children := []interval{
		{90, 110},  // starts before the parent: 10 inside
		{105, 120}, // overlaps the first: adds 10
		{120, 130}, // adjacent: adds 10
		{150, 160}, // disjoint: adds 10
		{155, 158}, // nested: adds nothing
		{210, 300}, // outside
	}
	if u := unionNS(children, parent.lo, parent.hi); u != 40 {
		t.Errorf("union = %d, want 40", u)
	}
	if s := selfNS(parent, children); s != 60 {
		t.Errorf("self = %d, want 60", s)
	}
	if s := selfNS(parent, nil); s != 100 {
		t.Errorf("self without children = %d, want 100", s)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "matrix_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_events_per_s", Better: "higher", Bound: 0.10}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"same", base, base, lower, "within bound"},
		{"slower inside the bound", base, scale(base, 1.05), lower, "within bound"},
		{"slower beyond the bound", base, scale(base, 1.2), lower, "worse"},
		{"faster beyond the noise", base, scale(base, 0.95), lower, "better"},
		{"throughput down", base, scale(base, 0.8), higher, "worse"},
		{"throughput up", base, scale(base, 1.05), higher, "better"},
		{"noise wider than the bound", []float64{5, 10, 15, 8, 12}, []float64{6, 11, 14, 9, 13}, lower, "unresolved"},
		{"noisy but separated", []float64{10, 14, 18, 12, 16}, []float64{5, 6, 7, 5.5, 6.5}, lower, "better"},
	} {
		if got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCountDiffs(t *testing.T) {
	run := func(settled float64) resultsFile {
		return resultsFile{Counts: map[string]float64{"settled": settled, "replays": 219, "ring_stalls": settled}}
	}
	if d := countDiffs([]resultsFile{run(219), run(219)}); len(d) != 0 {
		t.Errorf("identical runs differ: %v", d)
	}
	if d := countDiffs([]resultsFile{run(219), run(220)}); len(d) != 1 {
		t.Errorf("settled 219 vs 220: diffs %v, want one", d)
	}
}

// TestSpecNamesEveryMetric holds BENCHMARK.json and the code to the same
// metric names: every end-to-end metric is computed, and every per-layer
// metric comes from a traced pass, the sweeps or the service loop.
func TestSpecNamesEveryMetric(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	o.endToEnd()
	for _, m := range spec.EndToEnd {
		if _, ok := o.metrics[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not computed", m.Name)
		}
	}
	produced := map[string]bool{"report.render_s": true, "bench.trace_overhead": true}
	tp := &tracedPass{}
	for _, m := range []map[string]float64{tp.layers(), engineLayers(passCounts(engine.Stats{}, engine.Stats{}), nil),
		serveLayers(loopStats{}, loopStats{}, nil, snapshot{}, snapshot{})} {
		for k := range m {
			produced[k] = true
		}
	}
	for _, g := range memoGeometries {
		produced["memo.ns_per_event."+g.name] = true
		produced["memo.hit_ratio."+g.name] = true
	}
	for _, k := range []string{"trace.encode_ns_per_event", "trace.decode_ns_per_event",
		"trace.decode_compressed_ns_per_event", "trace.bytes_per_event", "tracestore.get_mb_per_s"} {
		produced[k] = true
	}
	for _, m := range spec.PerLayer {
		if !produced[m.Name] {
			t.Errorf("per-layer metric %s is not produced", m.Name)
		}
	}
	for _, w := range []string{"tiny-cold", "tiny-warm", "quick-warm", "serve-tiny"} {
		if !spec.hasWorkload(w) {
			t.Errorf("BENCHMARK.json lacks workload %s", w)
		}
	}
}

// TestTracedPathMatchesUntraced runs two experiments through
// experiments.RunContext and through the benchmark's traced rebuild of
// it, on fresh engines, and holds them to identical text and identical
// deterministic counters: the wrappers must change nothing the engine
// or the experiments can observe.
func TestTracedPathMatchesUntraced(t *testing.T) {
	names := []string{"table1", "figure4"}
	plain := engine.New(2)
	want, wantRep, err := experiments.RunContext(context.Background(), plain, experiments.Tiny, names...)
	if err != nil {
		t.Fatal(err)
	}
	traced := engine.New(2)
	tr := newTracer()
	got, gotRep, tp, err := runTraced(context.Background(), traced, experiments.Tiny, names, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRep.Errors) > 0 || len(gotRep.Errors) > 0 {
		t.Fatalf("cell errors: untraced %v, traced %v", wantRep.Errors, gotRep.Errors)
	}
	for i := range want {
		if report.Text(got[i]) != report.Text(want[i]) || got[i].Name != want[i].Name {
			t.Errorf("%s: traced output differs from RunContext", names[i])
		}
	}
	a, b := plain.Stats(), traced.Stats()
	if a.Captures != b.Captures || a.Replays != b.Replays || a.ReplayedEvents != b.ReplayedEvents ||
		a.Recaptures != b.Recaptures || a.DecodeOnceHits != b.DecodeOnceHits {
		t.Errorf("counters differ: untraced %+v, traced %+v", a, b)
	}

	if len(tp.captures) != int(b.Captures) {
		t.Errorf("%d capture spans for %d captures", len(tp.captures), b.Captures)
	}
	seen := map[trace.Sink]bool{}
	for _, s := range tp.sinks {
		if seen[s.inner] {
			t.Errorf("sink %s wrapped twice", s.name)
		}
		seen[s.inner] = true
	}
	tp.render = span{Start: tp.finish.End, End: tp.finish.End + 1}
	m := tp.layers()
	if m["workloads.captures"] != float64(b.Captures) || m["workloads.events"] == 0 {
		t.Errorf("capture layer: %v captures, %v events", m["workloads.captures"], m["workloads.events"])
	}
	if m["memo.events"] == 0 || m["cpu.events"] != 0 {
		t.Errorf("sink layers: memo %v events, cpu %v events (table1 and figure4 feed no cycle model)", m["memo.events"], m["cpu.events"])
	}
	if self := m["engine.self_s"]; self < 0 || self > m["engine.pass_s"] {
		t.Errorf("engine self time %v outside [0, %v]", self, m["engine.pass_s"])
	}
	if c := m["bench.span_coverage"]; c < 0.95 {
		t.Errorf("phase spans cover %.3f of the pass", c)
	}
}

func TestCheckerCatchesAlteredGolden(t *testing.T) {
	eng := engine.New(2)
	results, rep, err := experiments.RunContext(context.Background(), eng, experiments.Tiny, "table1")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := loadGoldens(filepath.Join("..", "testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{report.Text(results[0])}
	res := &childResult{}
	(&checker{goldens: goldens, res: res}).check(rep, results, texts)
	if res.Attempted != 1 || res.Failed != 0 {
		t.Fatalf("golden output: %d failed of %d (%v)", res.Failed, res.Attempted, res.Errors)
	}
	altered := append([]byte(nil), goldens["table1"]...)
	altered[len(altered)/2] ^= 1
	goldens["table1"] = altered
	(&checker{goldens: goldens, res: res}).check(rep, results, texts)
	if res.Failed != 1 {
		t.Errorf("altered golden: %d failed, want 1", res.Failed)
	}
}

func TestSweepOverAFewTraces(t *testing.T) {
	ws, err := registryWorkloads(experiments.Tiny)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Key < ws[j].Key })
	ws = ws[:4]
	st, err := buildCorpus(t.TempDir(), ws)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sweep(st, ws)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range m {
		if math.IsNaN(v) || v < 0 {
			t.Errorf("%s = %v", k, v)
		}
	}
	if r := m["memo.hit_ratio.inf"]; r < m["memo.hit_ratio.32x4"] || r > 1 {
		t.Errorf("unbounded table hit ratio %v below the 32x4 table's %v", r, m["memo.hit_ratio.32x4"])
	}
	if m["trace.decode_ns_per_event"] <= 0 || m["trace.bytes_per_event"] <= 0 {
		t.Errorf("codec sweep measured nothing: %v", m)
	}
}

// TestClientLoopCountsAndChecks drives the closed-loop clients against a
// stand-in /v1/run that answers every experiment with its name, except
// one it answers wrongly: every request is counted, the wrong bodies
// fail, and traced requests carry their span ID to the handler.
func TestClientLoopCountsAndChecks(t *testing.T) {
	var mu sync.Mutex
	marked := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		run := r.URL.Query().Get("run")
		if r.Header.Get(requestHeader) != "" {
			mu.Lock()
			marked++
			mu.Unlock()
		}
		if run == "table1" {
			run = "wrong"
		}
		io.WriteString(w, run)
	}))
	defer srv.Close()
	refs := map[string]string{}
	for _, n := range experiments.Names() {
		sum := sha256.Sum256([]byte(n))
		refs[n] = hex.EncodeToString(sum[:])
	}
	p := &params{seed: 7, deadline: context.Background()}
	ls := p.clientLoop(strings.TrimPrefix(srv.URL, "http://"), refs, 1, newTracer(), true)

	want := 2 * minPermutations * len(refs)
	if ls.requests != want || ls.failed != 2*minPermutations || ls.ok != want-ls.failed {
		t.Errorf("%d requests, %d ok, %d failed; want %d, %d, %d", ls.requests, ls.ok, ls.failed, want, want-2*minPermutations, 2*minPermutations)
	}
	if len(ls.latencyMS) != ls.ok || len(ls.spans) != ls.ok {
		t.Errorf("%d latencies and %d spans for %d successes", len(ls.latencyMS), len(ls.spans), ls.ok)
	}
	if marked != want {
		t.Errorf("%d of %d traced requests carried a span ID", marked, want)
	}
}
