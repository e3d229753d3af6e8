package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// The Prometheus exposition endpoint. GET /v1/metrics renders the same
// engine.Stats + service.Stats snapshots /v1/stats serves as JSON, in
// the Prometheus text format (version 0.0.4) a scraper expects: one
// HELP/TYPE pair per family, counters suffixed _total, tier shape as a
// labeled gauge family. The rendering is explicit — every exported
// field is listed by hand rather than reflected — so adding an engine
// counter is a conscious decision here, and a scrape can never change
// shape because a struct did.

// metricsContentType is the exposition format the text renderer emits.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metric is one rendered sample: a family name, optional label pairs,
// a help line, a type ("counter" or "gauge") and the value.
type metric struct {
	name   string
	labels string // rendered `{k="v"}` or ""
	help   string
	typ    string
	value  float64
}

// renderMetrics formats families in order, grouping samples that share
// a family under one HELP/TYPE header (the labeled tier family).
func renderMetrics(ms []metric) string {
	var b strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
			lastFamily = m.name
		}
		// %g keeps integers integral (counters are uint64-exact well
		// past any realistic count) and avoids trailing zero noise.
		fmt.Fprintf(&b, "%s%s %g\n", m.name, m.labels, m.value)
	}
	return b.String()
}

// handleMetrics serves the Prometheus exposition of the engine and
// service snapshots.
func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	es := s.eng.Stats()
	ss := s.Stats()

	ms := []metric{
		// Engine pipeline counters.
		{name: "memosim_engine_captures_total", help: "Workload executions performed (cache misses plus declined re-runs).", typ: "counter", value: float64(es.Captures)},
		{name: "memosim_engine_replays_total", help: "Cache replays served from any tier.", typ: "counter", value: float64(es.Replays)},
		{name: "memosim_engine_recaptures_total", help: "Spill files that failed verification and were re-captured.", typ: "counter", value: float64(es.Recaptures)},
		{name: "memosim_engine_decode_once_hits_total", help: "Replays served from shared decoded blocks.", typ: "counter", value: float64(es.DecodeOnceHits)},
		{name: "memosim_engine_replayed_events_total", help: "Events delivered by cache replays (each stream counted once).", typ: "counter", value: float64(es.ReplayedEvents)},
		{name: "memosim_engine_spill_retries_total", help: "Spill I/O operations retried after transient failure.", typ: "counter", value: float64(es.SpillRetries)},
		{name: "memosim_engine_degraded_captures_total", help: "Captures degraded to direct re-execution after spill failures.", typ: "counter", value: float64(es.DegradedCaptures)},
		{name: "memosim_engine_store_hits_total", help: "Cache entries settled from the persistent trace store.", typ: "counter", value: float64(es.StoreHits)},
		{name: "memosim_engine_store_puts_total", help: "Fresh captures published to the persistent trace store.", typ: "counter", value: float64(es.StorePuts)},

		// Delivery counters.
		{name: "memosim_engine_delivered_events_total", help: "Per-sink delivered events across replay and ingest.", typ: "counter", value: float64(es.DeliveredEvents)},
		{name: "memosim_engine_mask_skips_total", help: "Sink/batch deliveries skipped by class-mask mismatch.", typ: "counter", value: float64(es.MaskSkips)},

		// Live-ingest counters.
		{name: "memosim_engine_ingested_frames_total", help: "Frames delivered by live ingest sessions.", typ: "counter", value: float64(es.IngestedFrames)},
		{name: "memosim_engine_ingested_events_total", help: "Events delivered by live ingest sessions.", typ: "counter", value: float64(es.IngestedEvents)},
		{name: "memosim_engine_ingested_bytes_total", help: "Bytes fed into live ingest sessions.", typ: "counter", value: float64(es.IngestedBytes)},
		{name: "memosim_engine_sealed_ingests_total", help: "Ingest sessions sealed into the cache and store.", typ: "counter", value: float64(es.SealedIngests)},

		// Engine shape gauges.
		{name: "memosim_engine_workers", help: "Engine worker-pool size.", typ: "gauge", value: float64(es.Workers)},
		{name: "memosim_engine_cached_traces", help: "Captures resident in the memory tier.", typ: "gauge", value: float64(es.CachedTraces)},
		{name: "memosim_engine_spilled_traces", help: "Captures resident in the disk tier.", typ: "gauge", value: float64(es.SpilledTraces)},
		{name: "memosim_engine_cached_bytes", help: "Encoded bytes held by the memory tier.", typ: "gauge", value: float64(es.CachedBytes)},
		{name: "memosim_engine_decoded_entries", help: "Cache entries holding decoded blocks.", typ: "gauge", value: float64(es.DecodedEntries)},
		{name: "memosim_engine_decoded_block_bytes", help: "Budget bytes held by the decoded-block tier.", typ: "gauge", value: float64(es.DecodedBlockBytes)},
		{name: "memosim_engine_budget_limit_bytes", help: "Root trace-cache byte budget.", typ: "gauge", value: float64(es.BudgetLimit)},
		{name: "memosim_engine_budget_used_bytes", help: "Root budget bytes in use.", typ: "gauge", value: float64(es.BudgetUsed)},
		{name: "memosim_engine_budget_reserved_bytes", help: "Root budget bytes reserved by in-flight captures.", typ: "gauge", value: float64(es.BudgetReserved)},
	}

	// Tier shape: one labeled family per measure, tiers sorted by name
	// so the exposition is deterministic.
	tiers := s.eng.TierStats()
	sort.Slice(tiers, func(i, j int) bool { return tiers[i].Name < tiers[j].Name })
	for _, t := range tiers {
		ms = append(ms, metric{
			name: "memosim_engine_tier_entries", labels: fmt.Sprintf("{tier=%q}", t.Name),
			help: "Entries resident per cache tier.", typ: "gauge", value: float64(t.Entries),
		})
	}
	for _, t := range tiers {
		ms = append(ms, metric{
			name: "memosim_engine_tier_bytes", labels: fmt.Sprintf("{tier=%q}", t.Name),
			help: "Bytes resident per cache tier.", typ: "gauge", value: float64(t.Bytes),
		})
	}

	ms = append(ms,
		// Service admission counters.
		metric{name: "memosim_service_requests_total", help: "Run requests across all sessions.", typ: "counter", value: float64(ss.Requests)},
		metric{name: "memosim_service_runs_started_total", help: "Runs that executed on the engine.", typ: "counter", value: float64(ss.RunsStarted)},
		metric{name: "memosim_service_runs_coalesced_total", help: "Requests that joined an in-flight identical run.", typ: "counter", value: float64(ss.RunsCoalesced)},
		metric{name: "memosim_service_admitted_total", help: "Runs that acquired an engine slot.", typ: "counter", value: float64(ss.Admitted)},
		metric{name: "memosim_service_rejected_total", help: "Requests refused by admission control.", typ: "counter", value: float64(ss.Rejected)},

		// Service shape gauges.
		metric{name: "memosim_service_tenants", help: "Sessions created since start.", typ: "gauge", value: float64(ss.Tenants)},
		metric{name: "memosim_service_inflight", help: "Passes running on the engine now.", typ: "gauge", value: float64(ss.Inflight)},
		metric{name: "memosim_service_queued", help: "Requests waiting for an engine slot now.", typ: "gauge", value: float64(ss.Queued)},
	)

	w.Header().Set("Content-Type", metricsContentType)
	_, _ = fmt.Fprint(w, renderMetrics(ms))
}
