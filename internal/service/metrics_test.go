package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"memotable/internal/engine"
)

// metricValue extracts one sample's value from a rendered exposition,
// matching the full sample name (with labels) at line start.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, sample+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("sample %s: unparseable value %q: %v", sample, rest, err)
		}
		return v
	}
	t.Fatalf("sample %s not in exposition:\n%s", sample, body)
	return 0
}

// TestHTTPMetrics drives a run through the service and checks the
// Prometheus exposition: content type, HELP/TYPE discipline, and that
// the sampled values agree with the JSON stats snapshot taken at the
// same quiesced moment.
func TestHTTPMetrics(t *testing.T) {
	svc := New(engine.New(2), Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if status, body := get(t, srv.URL+"/v1/run?run=figure4,table1&scale=tiny"); status != http.StatusOK {
		t.Fatalf("warm-up run: status %d: %s", status, body)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("content type %q, want %q", ct, metricsContentType)
	}
	status, raw := get(t, srv.URL+"/v1/metrics")
	resp.Body.Close()
	if status != http.StatusOK {
		t.Fatalf("/v1/metrics: status %d", status)
	}
	body := string(raw)

	// Every sample family must carry exactly one HELP and one TYPE line.
	for _, fam := range []string{
		"memosim_engine_captures_total",
		"memosim_engine_replays_total",
		"memosim_engine_delivered_events_total",
		"memosim_service_requests_total",
		"memosim_service_inflight",
	} {
		if n := strings.Count(body, "# HELP "+fam+" "); n != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", fam, n)
		}
		if n := strings.Count(body, "# TYPE "+fam+" "); n != 1 {
			t.Errorf("family %s: %d TYPE lines, want 1", fam, n)
		}
	}
	if strings.Contains(body, "# TYPE memosim_engine_captures_total gauge") {
		t.Error("counter family typed as gauge")
	}
	if strings.Contains(body, "{") {
		t.Error("a labeled sample in an exposition of unlabeled families")
	}

	// The service is quiet (run finished, no other requests), so the
	// exposition must agree exactly with a stats snapshot taken now.
	es, ss := svc.Engine().Stats(), svc.Stats()
	for sample, want := range map[string]float64{
		"memosim_engine_captures_total":         float64(es.Captures),
		"memosim_engine_replays_total":          float64(es.Replays),
		"memosim_engine_workers":                float64(es.Workers),
		"memosim_engine_replayed_events_total":  float64(es.ReplayedEvents),
		"memosim_engine_delivered_events_total": float64(es.DeliveredEvents),
		"memosim_service_requests_total":        float64(ss.Requests),
		"memosim_service_admitted_total":        float64(ss.Admitted),
		"memosim_service_tenants":               float64(ss.Tenants),
		"memosim_service_inflight":              0,
	} {
		if got := metricValue(t, body, sample); got != want {
			t.Errorf("%s = %g, want %g", sample, got, want)
		}
	}
	if es.Captures == 0 {
		t.Error("warm-up run recorded no captures; value assertions are vacuous")
	}

}
