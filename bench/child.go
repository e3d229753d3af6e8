package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
	"memotable/internal/service"
	"memotable/internal/tracestore"
)

// The child side. Every workload runs in fresh processes of the bench
// binary, so each measurement starts from a cold Go heap and its own
// ru_maxrss. A child reports one JSON line on standard output; the serve
// child also answers "mark" commands on standard input with counter
// snapshots, so the parent can bracket its client loop.

// childOpts is what the parent tells one child.
type childOpts struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool   // alternate untraced and traced timed passes
	index     int    // child number within the run; picks its permutation
	dir       string // private work directory inside the checkout
	golden    string // directory of tiny-scale experiment goldens
	setupOnly bool   // stop where the timed section would start
}

// passResult is one timed matrix pass.
type passResult struct {
	Traced  bool               `json:"traced"`
	StartNS int64              `json:"start_ns"`
	WallS   float64            `json:"wall_s"`
	CPUS    float64            `json:"cpu_s"`
	Events  uint64             `json:"events"`
	Counts  map[string]float64 `json:"counts"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

// childResult is a matrix child's report, or a serve child's final line.
type childResult struct {
	TimedStartNS int64              `json:"timed_start_ns"`
	RSSMiB       float64            `json:"rss_mib"`
	Passes       []passResult       `json:"passes,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
}

// checker compares a pass's outputs against their references and keeps
// the tally that becomes failed out of attempted.
type checker struct {
	goldens  map[string][]byte
	res      *childResult
	quickSHA string
}

func (c *checker) fail(format string, args ...any) {
	c.res.Failed++
	if len(c.res.Errors) < 20 {
		c.res.Errors = append(c.res.Errors, fmt.Sprintf(format, args...))
	}
}

// check holds each result of a pass to its reference: the golden text at
// tiny scale; at quick scale the digest of the whole pass, which must
// match the one recorded in bench/baseline.json. It returns the pass
// digest.
func (c *checker) check(rep *engine.PassReport, results []*report.Result, texts []string) string {
	byName := make(map[string]string, len(results))
	for i, r := range results {
		c.res.Attempted++
		switch {
		case r == nil || len(r.Errs) > 0:
			c.fail("%s: degraded result", nameOf(r))
		case c.goldens != nil && texts[i] != string(c.goldens[r.Name]):
			c.fail("%s: text differs from its golden", r.Name)
		}
		if r != nil {
			byName[r.Name] = texts[i]
		}
	}
	if len(rep.Errors) > 0 || rep.Canceled {
		c.fail("pass report: %d failed cells, canceled=%v", len(rep.Errors), rep.Canceled)
	}
	h := sha256.New()
	for _, n := range experiments.Names() {
		io.WriteString(h, byName[n])
		h.Write([]byte{0})
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if c.goldens == nil && digest != c.quickSHA {
		c.fail("pass digest %s differs from the recorded %s", digest, c.quickSHA)
	}
	return digest
}

func nameOf(r *report.Result) string {
	if r == nil {
		return "<nil>"
	}
	return r.Name
}

// loadGoldens reads every experiment's golden text.
func loadGoldens(dir string) (map[string][]byte, error) {
	g := make(map[string][]byte)
	for _, n := range experiments.Names() {
		b, err := os.ReadFile(filepath.Join(dir, n+".golden"))
		if err != nil {
			return nil, err
		}
		g[n] = b
	}
	return g, nil
}

// order is the experiment order of one pass: a permutation of the
// registry drawn from the seed and the pass number.
func order(seed int64, pass int) []string {
	names := experiments.Names()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// minPasses is how many untraced timed passes a matrix run makes at
// least. Pass times on a shared two-core machine wander by a tenth or
// more from one pass to the next, so each run reports the median of
// several; a quick-scale pass already lasts twenty seconds.
var minPasses = map[string]int{"tiny-cold": 5, "tiny-warm": 5, "quick-warm": 1}

// enoughPasses decides whether a matrix run has measured enough after n
// timed passes and elapsed seconds: the minimum count and the run's
// seconds for an untraced run, whole untraced-traced pairs for a traced
// one.
func enoughPasses(workload string, n int, elapsed, secs float64, traced bool) bool {
	if elapsed < secs {
		return false
	}
	if traced {
		return n%2 == 0
	}
	return n >= minPasses[workload]
}

// passOrder numbers the permutation of the i-th timed pass. A traced
// run pairs each untraced pass with a traced one in the same order, so
// the pair's counters and wall times compare like for like.
func passOrder(i int, traced bool) int {
	if traced {
		return i / 2
	}
	return i
}

// workloadScale returns a matrix workload's scale and whether it runs
// against a primed store.
func workloadScale(w string) (experiments.Scale, bool) {
	switch w {
	case "tiny-warm":
		return experiments.Tiny, true
	case "quick-warm":
		return experiments.Quick, true
	}
	return experiments.Tiny, false
}

// rusage reads this process's CPU seconds (user + system) and peak RSS.
func rusage() (cpuS, rssMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// passCounts is the engine's counter movement over one pass, plus the
// cache shape it left behind.
func passCounts(before, after engine.Stats) map[string]float64 {
	d := func(a, b uint64) float64 { return float64(b - a) }
	return map[string]float64{
		"captures":          d(before.Captures, after.Captures),
		"replays":           d(before.Replays, after.Replays),
		"replayed_events":   d(before.ReplayedEvents, after.ReplayedEvents),
		"recaptures":        d(before.Recaptures, after.Recaptures),
		"store_hits":        d(before.StoreHits, after.StoreHits),
		"store_puts":        d(before.StorePuts, after.StorePuts),
		"spill_retries":     d(before.SpillRetries, after.SpillRetries),
		"degraded_captures": d(before.DegradedCaptures, after.DegradedCaptures),
		"settled":           d(before.Captures+before.StoreHits, after.Captures+after.StoreHits),
		"decode_once_hits":  d(before.DecodeOnceHits, after.DecodeOnceHits),
		"fanout_replays":    d(before.FanoutReplays, after.FanoutReplays),
		"ring_stalls":       d(before.RingStalls, after.RingStalls),
		"delivered_events":  d(before.DeliveredEvents, after.DeliveredEvents),
		"mask_skips":        d(before.MaskSkips, after.MaskSkips),
		"spilled_traces":    float64(after.SpilledTraces),
		"decoded_block_mib": float64(after.DecodedBlockBytes) / (1 << 20),
	}
}

// engineLayers maps a pass's counters onto the engine and tracestore
// per-layer metric names.
func engineLayers(c map[string]float64, st *tracestore.Store) map[string]float64 {
	m := make(map[string]float64)
	for _, k := range []string{"replays", "replayed_events", "recaptures", "spilled_traces", "spill_retries",
		"degraded_captures", "decode_once_hits", "decoded_block_mib", "fanout_replays", "ring_stalls",
		"delivered_events", "mask_skips"} {
		m["engine."+k] = c[k]
	}
	m["tracestore.hits"] = c["store_hits"]
	m["tracestore.puts"] = c["store_puts"]
	m["tracestore.hit_ratio"] = c["store_hits"] / max(c["settled"], 1)
	m["tracestore.bytes"] = 0
	if st != nil {
		if b, err := st.Bytes(); err == nil {
			m["tracestore.bytes"] = float64(b)
		}
	}
	return m
}

// runPass runs and renders one full-registry pass, traced or not.
func runPass(eng *engine.Engine, scale experiments.Scale, names []string, t *tracer, traced bool) (passResult, *engine.PassReport, []*report.Result, []string, error) {
	pr := passResult{Traced: traced}
	before := eng.Stats()
	cpu0, _ := rusage()
	start := t.now()
	pr.StartNS = start

	var results []*report.Result
	var rep *engine.PassReport
	var tp *tracedPass
	var err error
	if traced {
		results, rep, tp, err = runTraced(context.Background(), eng, scale, names, t)
	} else {
		results, rep, err = experiments.RunContext(context.Background(), eng, scale, names...)
	}
	if err != nil {
		return pr, nil, nil, nil, err
	}
	renderStart := t.now()
	texts := make([]string, len(results))
	for i, r := range results {
		texts[i] = report.Text(r)
	}
	end := t.now()

	cpu1, _ := rusage()
	pr.WallS = seconds(end - start)
	pr.CPUS = cpu1 - cpu0
	pr.Counts = passCounts(before, eng.Stats())
	pr.Events = uint64(pr.Counts["replayed_events"])
	if traced {
		tp.render = span{ID: t.newID(), Parent: tp.root, Layer: "report", Name: "render", Start: renderStart, End: end}
		pr.Layers = tp.layers()
		for k, v := range engineLayers(pr.Counts, eng.Store()) {
			pr.Layers[k] = v
		}
		t.add(tp.spans(t)...)
	}
	return pr, rep, results, texts, nil
}

// runMatrixChild runs tiny-cold (one cold pass per process), tiny-warm
// and quick-warm (priming a store, then timed passes on fresh engines
// attached to it).
func runMatrixChild(o childOpts, t *tracer) (*childResult, error) {
	res := &childResult{}
	scale, warm := workloadScale(o.workload)
	ck := &checker{res: res}
	if scale == experiments.Tiny {
		g, err := loadGoldens(o.golden)
		if err != nil {
			return nil, err
		}
		ck.goldens = g
	} else {
		base, err := loadBaseline()
		if err != nil {
			return nil, err
		}
		ck.quickSHA = base.QuickSHA256
	}
	var st *tracestore.Store
	if warm {
		var err error
		if st, err = tracestore.Open(filepath.Join(o.dir, "store")); err != nil {
			return nil, err
		}
	}
	spill := filepath.Join(o.dir, "spill")
	newEngine := func() *engine.Engine {
		eng := engine.New(2)
		eng.SetTraceDir(spill)
		if st != nil {
			eng.SetStore(st)
		}
		return eng
	}

	if !warm {
		eng := newEngine()
		defer eng.Close()
		res.TimedStartNS = t.now()
		if o.setupOnly {
			return res, nil
		}
		traced := o.traced && o.index%2 == 1
		pr, rep, results, texts, err := runPass(eng, scale, order(o.seed, passOrder(o.index, o.traced)), t, traced)
		if err != nil {
			return nil, err
		}
		ck.check(rep, results, texts)
		res.Passes = append(res.Passes, pr)
		return res, nil
	}

	// Priming publishes every workload the registry demands to the
	// store: the warm phase of a pass without its replays.
	prime := newEngine()
	ws, err := registryWorkloads(scale)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(ws))
	prime.Map(len(ws), func(i int) { errs[i] = prime.Warm(ws[i].Key, ws[i].Capture) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := prime.Close(); err != nil {
		return nil, err
	}

	res.TimedStartNS = t.now()
	var first string // the first timed pass's digest; every pass must match it
	for i := 0; ; i++ {
		traced := o.traced && i%2 == 1
		eng := newEngine()
		pr, rep, results, texts, err := runPass(eng, scale, order(o.seed, 1+passOrder(i, o.traced)), t, traced)
		if err != nil {
			return nil, err
		}
		if digest := ck.check(rep, results, texts); first == "" {
			first = digest
		} else if digest != first {
			ck.fail("pass %d digest %s differs from the first pass %s", i, digest, first)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		res.Passes = append(res.Passes, pr)
		if enoughPasses(o.workload, i+1, seconds(t.now()-res.TimedStartNS), o.seconds, o.traced) {
			break
		}
	}
	return res, nil
}

// runSweepChild builds the sweep corpus at the workload's scale and runs
// the layer sweeps over it.
func runSweepChild(o childOpts) (*childResult, error) {
	scale, _ := workloadScale(o.workload)
	ws, err := registryWorkloads(scale)
	if err != nil {
		return nil, err
	}
	st, err := buildCorpus(o.dir, ws)
	if err != nil {
		return nil, err
	}
	layers, err := sweep(st, ws)
	if err != nil {
		return nil, err
	}
	return &childResult{Layers: layers}, nil
}

// snapshot is the serve child's answer to "mark": its CPU time and
// counters at one instant.
type snapshot struct {
	CPUS    float64       `json:"cpu_s"`
	Service service.Stats `json:"service"`
	Engine  engine.Stats  `json:"engine"`
}

// serveReady is the serve child's first line: where it listens, when
// set-up ended, and the reference body digest of every experiment.
type serveReady struct {
	Addr         string             `json:"addr"`
	TimedStartNS int64              `json:"timed_start_ns"`
	Refs         map[string]string  `json:"refs"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Errors       []string           `json:"errors,omitempty"`
	Layers       map[string]float64 `json:"layers"`
}

// requestHeader carries a traced request's span ID from client to
// handler, so both ends of one request share it.
const requestHeader = "X-Bench-Request"

// handlerSpans times the service handler for requests the client marked
// with a span ID; unmarked requests pass straight through.
type handlerSpans struct {
	next http.Handler
	t    *tracer
}

func (h handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(requestHeader), 10, 64)
	if err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := h.t.now()
	h.next.ServeHTTP(w, r)
	h.t.add(span{ID: id, Layer: "service", Name: "handler", Start: start, End: h.t.now()})
}

// runServeChild warms a service with one full tiny pass, renders the
// offline reference bodies, serves /v1/run on loopback, and answers
// marks until told to stop.
func runServeChild(o childOpts, t *tracer, in io.Reader, out *json.Encoder) (*childResult, error) {
	res := &childResult{}
	g, err := loadGoldens(o.golden)
	if err != nil {
		return nil, err
	}
	ck := &checker{goldens: g, res: res}
	eng := engine.New(2)
	eng.SetTraceDir(filepath.Join(o.dir, "spill"))
	svc := service.New(eng, service.Config{})
	defer svc.Close()

	_, rep, results, texts, err := runPass(eng, experiments.Tiny, experiments.Names(), t, false)
	if err != nil {
		return nil, err
	}
	ck.check(rep, results, texts)
	refs := make(map[string]string, len(results))
	renderStart := t.now()
	for _, r := range results {
		body, err := report.JSONArray([]*report.Result{r})
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(body)
		refs[r.Name] = hex.EncodeToString(sum[:])
	}
	renderNS := t.now() - renderStart

	var h http.Handler = svc.Handler()
	if o.traced {
		h = handlerSpans{next: h, t: t}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ready := serveReady{
		Addr: ln.Addr().String(), TimedStartNS: t.now(), Refs: refs,
		Attempted: res.Attempted, Failed: res.Failed, Errors: res.Errors,
		Layers: map[string]float64{"report.render_s": seconds(renderNS)},
	}
	if err := out.Encode(ready); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() && sc.Text() == "mark" {
		cpuS, _ := rusage()
		if err := out.Encode(snapshot{CPUS: cpuS, Service: svc.Stats(), Engine: eng.Stats()}); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; err != http.ErrServerClosed {
		return nil, err
	}
	return &childResult{Spans: t.take()}, nil
}
