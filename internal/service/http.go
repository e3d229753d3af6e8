package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/faults"
	"memotable/internal/report"
)

// The HTTP front-end. Handler exposes the service over three GET
// endpoints:
//
//	GET /v1/experiments            the registry: [{"name","title"}, ...]
//	GET /v1/run?run=a,b&scale=s    run a selection, return its results
//	GET /v1/stats                  engine + service snapshots
//	GET /v1/metrics                the same snapshots as Prometheus text
//
// /v1/run parameters mirror the offline CLI flags: `run` is the
// comma-separated experiment selection ("" or "all" selects the whole
// registry, like `-run` omitted), `scale` is tiny|quick|full (default
// quick, like `-scale`), `tenant` names the requesting tenant (default
// "default"), and `timeout` caps the request wall clock (a Go duration,
// e.g. "30s"). The 200 response body is byte-identical to what `memosim
// -scale s -run a,b -json` prints for the same selection — both render
// through report.JSONArray — which is what lets CI diff daemon
// responses against offline output.
//
// Status codes:
//
//	200  clean run, exact results
//	206  degraded run: same JSON body, but some cells failed (the
//	     per-result "errors" arrays say which) or the run was cut short
//	400  unknown experiment names, bad scale, bad timeout
//	429  admission rejected (queue full, slot wait expired, injected
//	     service.admit fault) — retry later
//	500  run or render failure (injected service.run/service.render,
//	     selection planning defects)
//	503  service closed
//	504  the request's own deadline or cancellation fired
//
// Error responses are a small JSON object {"error": "..."} so clients
// never have to sniff; success bodies are always a JSON array.

// Handler returns the service's HTTP handler, ready to mount on a
// server.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

// httpError writes the uniform JSON error body.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	w.Write(append(body, '\n'))
}

// handleExperiments lists the registry.
func (s *Service) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type exp struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	all := experiments.All()
	out := make([]exp, len(all))
	for i, e := range all {
		out[i] = exp{Name: e.Name, Title: e.Title}
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// runParams decodes and validates one /v1/run request.
func runParams(r *http.Request) (tenant string, scale experiments.Scale, names []string, timeout time.Duration, err error) {
	q := r.URL.Query()
	tenant = q.Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	scale, err = experiments.ParseScale(q.Get("scale"))
	if err != nil {
		return
	}
	if sel := q.Get("run"); sel != "" && sel != "all" {
		names = strings.Split(sel, ",")
	}
	// Unknown names are a client defect (400), not a run failure (500):
	// validate against the registry before anything queues.
	if _, err = experiments.Lookup(names...); err != nil {
		return
	}
	if ts := q.Get("timeout"); ts != "" {
		timeout, err = time.ParseDuration(ts)
		if err != nil {
			err = fmt.Errorf("bad timeout %q: %w", ts, err)
			return
		}
	}
	return
}

// handleRun runs a selection for a tenant and streams the result array.
func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	tenant, scale, names, timeout, err := runParams(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	results, rep, err := s.Session(tenant).Run(ctx, scale, names...)
	if err != nil {
		httpError(w, runStatus(err), err)
		return
	}
	if ferr := faults.Inject(faults.ServiceRender); ferr != nil {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("service: render failed: %w", ferr))
		return
	}
	body, err := report.JSONArray(results)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusOK
	if len(rep.Errors) > 0 || rep.Canceled {
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// runStatus maps a Session.Run error to its documented status code.
func runStatus(err error) int {
	switch {
	case errors.Is(err, ErrAdmission):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleStats snapshots the engine and the service.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := struct {
		Engine  engine.Stats `json:"engine"`
		Service Stats        `json:"service"`
	}{
		Engine:  s.eng.Stats(),
		Service: s.Stats(),
	}
	body, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
