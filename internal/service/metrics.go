package service

import (
	"fmt"
	"net/http"
	"strings"
)

// The Prometheus exposition endpoint. GET /v1/metrics renders the same
// engine.Stats + service.Stats snapshots /v1/stats serves as JSON, in
// the Prometheus text format (version 0.0.4) a scraper expects: one
// HELP/TYPE pair per family, counters suffixed _total. The rendering is explicit — every exported
// field is listed by hand rather than reflected — so adding an engine
// counter is a conscious decision here, and a scrape can never change
// shape because a struct did.

// metricsContentType is the exposition format the text renderer emits.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metric is one rendered sample, the only one of its family: a family
// name, a help line, a type ("counter" or "gauge") and the value.
type metric struct {
	name  string
	help  string
	typ   string
	value float64
}

// renderMetrics formats each family in order: its HELP/TYPE header,
// then its sample.
func renderMetrics(ms []metric) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		// %g keeps integers integral (counters are uint64-exact well
		// past any realistic count) and avoids trailing zero noise.
		fmt.Fprintf(&b, "%s %g\n", m.name, m.value)
	}
	return b.String()
}

// handleMetrics serves the Prometheus exposition of the engine and
// service snapshots.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	ss := s.Stats()

	ms := []metric{
		// Engine run counters.
		{name: "memosim_engine_captures_total", help: "Workload runs started.", typ: "counter", value: float64(es.Captures)},
		{name: "memosim_engine_replays_total", help: "Workload runs that fed their sinks to the end.", typ: "counter", value: float64(es.Replays)},
		{name: "memosim_engine_replayed_events_total", help: "Events delivered by completed workload runs (each stream counted once).", typ: "counter", value: float64(es.ReplayedEvents)},

		// Delivery counters.
		{name: "memosim_engine_delivered_events_total", help: "Per-sink delivered events across workload runs and ingest.", typ: "counter", value: float64(es.DeliveredEvents)},
		{name: "memosim_engine_mask_skips_total", help: "Sink/batch deliveries skipped by class-mask mismatch.", typ: "counter", value: float64(es.MaskSkips)},

		// Live-ingest counters.
		{name: "memosim_engine_ingested_frames_total", help: "Frames delivered by live ingest sessions.", typ: "counter", value: float64(es.IngestedFrames)},
		{name: "memosim_engine_ingested_events_total", help: "Events delivered by live ingest sessions.", typ: "counter", value: float64(es.IngestedEvents)},
		{name: "memosim_engine_ingested_bytes_total", help: "Bytes fed into live ingest sessions.", typ: "counter", value: float64(es.IngestedBytes)},
		{name: "memosim_engine_sealed_ingests_total", help: "Ingest sessions sealed at a clean frame boundary.", typ: "counter", value: float64(es.SealedIngests)},

		// Engine shape.
		{name: "memosim_engine_workers", help: "Engine worker-pool size.", typ: "gauge", value: float64(es.Workers)},

		// Service admission counters.
		{name: "memosim_service_requests_total", help: "Run requests across all sessions.", typ: "counter", value: float64(ss.Requests)},
		{name: "memosim_service_runs_started_total", help: "Runs that executed on the engine.", typ: "counter", value: float64(ss.RunsStarted)},
		{name: "memosim_service_runs_coalesced_total", help: "Requests that joined an in-flight identical run.", typ: "counter", value: float64(ss.RunsCoalesced)},
		{name: "memosim_service_admitted_total", help: "Runs that acquired an engine slot.", typ: "counter", value: float64(ss.Admitted)},
		{name: "memosim_service_rejected_total", help: "Requests refused by admission control.", typ: "counter", value: float64(ss.Rejected)},

		// Service shape gauges.
		{name: "memosim_service_tenants", help: "Sessions created since start.", typ: "gauge", value: float64(ss.Tenants)},
		{name: "memosim_service_inflight", help: "Passes running on the engine now.", typ: "gauge", value: float64(ss.Inflight)},
		{name: "memosim_service_queued", help: "Requests waiting for an engine slot now.", typ: "gauge", value: float64(ss.Queued)},
	}

	w.Header().Set("Content-Type", metricsContentType)
	_, _ = fmt.Fprint(w, renderMetrics(ms))
}
