package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"memotable/internal/experiments"
)

// The serve-tiny client side: two closed-loop clients (tenants c0 and
// c1), each on its own connection, each sending its next request only
// after the last response body has arrived. A client walks seeded
// permutations of the registry, one experiment per request, and stops at
// the end of a permutation once it has sent minPermutations and the loop
// has run its seconds; whole permutations keep the request mix identical
// across seeds, so only the order and the interleaving vary.

// minPermutations is how many whole permutations each client sends at
// least: 2 clients x 4 x 16 requests leave at least ten samples beyond
// the p90 latency.
const minPermutations = 4

// requestIDBase keeps the client's span IDs clear of the IDs the child
// gives its own spans.
const requestIDBase = 1 << 40

// loopStats is one client loop's outcome.
type loopStats struct {
	wallS     float64
	ok        int
	requests  int
	failed    int
	errors    []string
	latencyMS []float64
	spans     []span
}

// serveSession drives one serve child over its standard streams.
type serveSession struct {
	in  io.WriteCloser
	dec *json.Decoder
}

func (s *serveSession) mark() (snapshot, error) {
	var snap snapshot
	if _, err := io.WriteString(s.in, "mark\n"); err != nil {
		return snap, err
	}
	return snap, s.dec.Decode(&snap)
}

// runServe starts the serve child, runs the client loop (an untraced
// loop, then in trace mode a traced one), and aggregates both ends.
func (p *params) runServe() (*outcome, error) {
	o := newOutcome()
	cmd, dir, err := p.command("serve", "serve-tiny", 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	spawned := time.Now().UnixNano()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	waited := false
	defer func() {
		if !waited { // an error path: closing stdin stops the child
			in.Close()
			_ = cmd.Wait()
		}
	}()
	s := &serveSession{in: in, dec: json.NewDecoder(bufio.NewReader(outPipe))}

	var ready serveReady
	if err := s.dec.Decode(&ready); err != nil {
		return nil, fmt.Errorf("serve child: %w", err)
	}
	o.attempted, o.failed, o.errors = ready.Attempted, ready.Failed, ready.Errors
	o.add("setup_s", seconds(ready.TimedStartNS-spawned))
	o.runStarts = append(o.runStarts, ready.TimedStartNS)

	t := newTracer()
	loops := []bool{false}
	if p.traced {
		loops = append(loops, true)
	}
	var wall [2]float64
	var before, after snapshot
	var ls, untraced loopStats
	for i, traced := range loops {
		if before, err = s.mark(); err != nil {
			return nil, err
		}
		ls = p.clientLoop(ready.Addr, ready.Refs, i, t, traced)
		if after, err = s.mark(); err != nil {
			return nil, err
		}
		o.attempted += ls.requests
		o.failed += ls.failed
		o.errors = append(o.errors, ls.errors...)
		if ls.ok == 0 {
			return nil, fmt.Errorf("no request succeeded: %v", ls.errors)
		}
		// Per registry's worth of answers: the service's counterpart of
		// one full-matrix pass.
		perMatrix := float64(len(ready.Refs)) / float64(ls.ok)
		wall[i] = ls.wallS * perMatrix
		if traced {
			continue
		}
		untraced = ls
		o.reps = ls.requests
		o.samples["request_ms"] = ls.latencyMS
		o.add("matrix_s", wall[i])
		o.add("cpu_s", (after.CPUS-before.CPUS)*perMatrix)
		o.add("sim_events_per_s", float64(after.Engine.ReplayedEvents-before.Engine.ReplayedEvents)/ls.wallS)
		o.counts = map[string]float64{"failed": float64(ls.failed)}
	}

	if _, err := io.WriteString(in, "stop\n"); err != nil {
		return nil, err
	}
	var final childResult
	if err := s.dec.Decode(&final); err != nil {
		return nil, fmt.Errorf("serve child: %w", err)
	}
	in.Close()
	waited = true
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("serve child: %w", err)
	}
	o.add("peak_rss_mb", final.RSSMiB)

	o.endToEnd()
	if p.traced {
		o.metrics = serveLayers(ls, untraced, final.Spans, before, after)
		o.metrics["report.render_s"] = ready.Layers["report.render_s"]
		o.metrics["bench.trace_overhead"] = wall[1]/wall[0] - 1
		o.spans = append(append(final.Spans, ls.spans...), o.spans...)
	}
	return o, nil
}

// serveLayers reduces the traced loop to the service and engine layer
// metrics: handler time from the child's middleware spans, what the
// client saw beyond it, and the counters' movement over the loop.
func serveLayers(ls, untraced loopStats, childSpans []span, before, after snapshot) map[string]float64 {
	handler := make(map[int64]float64)
	var handlerMS []float64
	for _, s := range childSpans {
		if s.Layer == "service" {
			ms := float64(s.End-s.Start) / 1e6
			handler[s.ID] = ms
			handlerMS = append(handlerMS, ms)
		}
	}
	var overhead []float64
	for _, s := range ls.spans {
		if h, ok := handler[s.ID]; ok {
			overhead = append(overhead, float64(s.End-s.Start)/1e6-h)
		}
	}
	m := engineLayers(passCounts(before.Engine, after.Engine), nil)
	m["service.request_p50_ms"], _ = percentile(untraced.latencyMS, 50)
	m["service.request_p90_ms"], _ = percentile(untraced.latencyMS, 90)
	m["service.handler_p50_ms"], _ = percentile(handlerMS, 50)
	m["service.handler_p90_ms"], _ = percentile(handlerMS, 90)
	m["service.client_overhead_ms"] = median(overhead)
	m["service.requests"] = float64(after.Service.Requests - before.Service.Requests)
	m["service.runs_started"] = float64(after.Service.RunsStarted - before.Service.RunsStarted)
	m["service.coalesced"] = float64(after.Service.RunsCoalesced - before.Service.RunsCoalesced)
	m["service.rejected"] = float64(after.Service.Rejected - before.Service.Rejected)
	m["service.replayed_events_per_request"] = m["engine.replayed_events"] / max(m["service.requests"], 1)
	return m
}

// clientLoop runs the two clients until each has sent its permutations.
func (p *params) clientLoop(addr string, refs map[string]string, loop int, t *tracer, traced bool) loopStats {
	var mu sync.Mutex
	var ls loopStats
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			rng := rand.New(rand.NewSource(p.seed*1_000_003 + 1000*int64(loop+1) + int64(c)))
			names := experiments.Names()
			for n := 0; n < minPermutations || time.Since(start).Seconds() < p.seconds; n++ {
				for _, k := range rng.Perm(len(names)) {
					if p.deadline.Err() != nil {
						return
					}
					r := request(p, client, addr, names[k], c, t, traced)
					mu.Lock()
					ls.record(r, refs[names[k]])
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	ls.wallS = time.Since(start).Seconds()
	return ls
}

// response is one request as the client saw it.
type response struct {
	name   string
	status int
	digest string
	err    error
	span   span
}

func request(p *params, client *http.Client, addr, name string, c int, t *tracer, traced bool) response {
	q := url.Values{"run": {name}, "scale": {"tiny"}, "tenant": {"c" + strconv.Itoa(c)}}
	r := response{name: name}
	req, err := http.NewRequestWithContext(p.deadline, http.MethodGet, "http://"+addr+"/v1/run?"+q.Encode(), nil)
	if err != nil {
		r.err = err
		return r
	}
	r.span = span{ID: requestIDBase + t.newID(), Layer: "client", Name: name}
	if traced {
		req.Header.Set(requestHeader, strconv.FormatInt(r.span.ID, 10))
	}
	r.span.Start = t.now()
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.span.End = t.now()
	r.status, r.err = resp.StatusCode, err
	sum := sha256.Sum256(body)
	r.digest = hex.EncodeToString(sum[:])
	return r
}

func (ls *loopStats) record(r response, want string) {
	ls.requests++
	var problem string
	switch {
	case r.err != nil:
		problem = r.err.Error()
	case r.status != http.StatusOK:
		problem = fmt.Sprintf("status %d", r.status)
	case r.digest != want:
		problem = "body differs from the offline JSONArray"
	}
	if problem != "" {
		ls.failed++
		if len(ls.errors) < 20 {
			ls.errors = append(ls.errors, r.name+": "+problem)
		}
		return
	}
	ls.ok++
	ls.latencyMS = append(ls.latencyMS, float64(r.span.End-r.span.Start)/1e6)
	ls.spans = append(ls.spans, r.span)
}
