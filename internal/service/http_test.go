package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
)

// get issues a request against the test server and returns status+body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestHTTPRunMatchesOffline is the front-end's core contract: a daemon
// /v1/run response must be byte-identical to the offline renderer's
// output for the same selection — and stay identical on a repeat.
func TestHTTPRunMatchesOffline(t *testing.T) {
	svc := New(engine.New(2), Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	offlineEng := engine.New(2)
	defer offlineEng.Close()
	results, _, err := experiments.RunContext(context.Background(), offlineEng, experiments.Tiny, "figure4")
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.JSONArray(results)
	if err != nil {
		t.Fatal(err)
	}

	var first uint64
	for pass, label := range []string{"first", "repeat"} {
		status, body := get(t, srv.URL+"/v1/run?run=figure4&scale=tiny&tenant=alice")
		if status != http.StatusOK {
			t.Fatalf("%s pass: status %d: %s", label, status, body)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("%s pass (%d): daemon bytes differ from offline render", label, pass)
		}
		if pass == 0 {
			first = svc.Engine().Stats().Captures
		}
	}
	// Two serial identical requests each run every workload the
	// selection demands, once (the coalescing counters cover the
	// concurrent case).
	if st := svc.Engine().Stats(); first == 0 || st.Captures != 2*first || st.Replays != st.Captures {
		t.Fatalf("two requests ran %d workloads (%d completed), want twice the first request's %d",
			st.Captures, st.Replays, first)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	svc := New(engine.New(1), Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, q := range []string{
		"run=bogus",
		"run=table1&scale=huge",
		"run=table1&timeout=soon",
	} {
		status, body := get(t, srv.URL+"/v1/run?"+q)
		if status != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("query %q: error body %q unparseable: %v", q, body, err)
		}
	}
}

func TestHTTPStatsAndExperiments(t *testing.T) {
	svc := New(engine.New(1), Config{})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	status, body := get(t, srv.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats: status %d", status)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/v1/stats body: %v", err)
	}
	var es engine.Stats
	var ss Stats
	if len(snap) != 2 || json.Unmarshal(snap["engine"], &es) != nil || json.Unmarshal(snap["service"], &ss) != nil {
		t.Fatalf("stats snapshot %s, want exactly an engine and a service object", body)
	}
	if es.Workers < 1 {
		t.Fatalf("stats snapshot implausible: %+v", es)
	}

	status, body = get(t, srv.URL+"/v1/experiments")
	if status != http.StatusOK {
		t.Fatalf("/v1/experiments: status %d", status)
	}
	var exps []struct {
		Name  string `json:"name"`
		Title string `json:"title"`
	}
	if err := json.Unmarshal(body, &exps); err != nil {
		t.Fatalf("/v1/experiments body: %v", err)
	}
	if len(exps) != len(experiments.Names()) {
		t.Fatalf("listed %d experiments, registry has %d", len(exps), len(experiments.Names()))
	}

	status, _ = get(t, srv.URL+"/v1/nope")
	if status != http.StatusNotFound {
		t.Fatalf("/v1/nope: status %d, want 404", status)
	}
}

// TestHTTPAdmissionStatus maps a saturated service to 429 on the wire.
func TestHTTPAdmissionStatus(t *testing.T) {
	svc := New(engine.New(1), Config{MaxInflight: 1, MaxQueue: 1, MaxWait: 10 * time.Millisecond})
	defer svc.Close()
	svc.sem <- struct{}{}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	status, _ := get(t, srv.URL+"/v1/run?run=table1&scale=tiny")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated run: status %d, want 429", status)
	}
}
