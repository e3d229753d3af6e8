package service

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
	"memotable/internal/trace"
)

// The cancellation tests need a capture they can hold mid-flight. A
// test-only experiment is registered for that: its single workload
// signals blockStarted and then parks on blockRelease (when armed).
// Registering here is safe — the registry-length assertions elsewhere
// in this package compare against the same live registry.
var (
	blockStarted chan struct{}
	blockRelease chan struct{}
)

func init() {
	experiments.Register(experiments.Experiment{
		Name:  "svc_block_test",
		Title: "service test: capture that blocks until released",
		Plan: func(*experiments.Context) experiments.Plan {
			var ctr trace.Counter
			w := experiments.Workload{
				Key: "svc|block",
				Capture: func(trace.Sink) {
					if blockStarted != nil {
						blockStarted <- struct{}{}
						<-blockRelease
					}
				},
			}
			return experiments.Plan{
				Demands: []experiments.Demand{{Sinks: []trace.Sink{&ctr}, Workloads: []experiments.Workload{w}}},
				Finish: func() *report.Result {
					return report.NewScalar("svc_block_test", report.Str("done"), "")
				},
			}
		},
	})
}

// waitUntil polls cond for up to 5s — the synchronization tests use it
// to observe counters that goroutines advance.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionMaxWait(t *testing.T) {
	svc := New(engine.New(1), Config{MaxInflight: 1, MaxQueue: 1, MaxWait: 30 * time.Millisecond})
	defer svc.Close()
	svc.sem <- struct{}{} // occupy the only slot

	start := time.Now()
	_, _, err := svc.Session("a").Run(context.Background(), experiments.Tiny, "table1")
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("run with no free slot: %v, want ErrAdmission", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("rejected after %v, before the max wait", waited)
	}
	if st := svc.Stats(); st.Rejected != 1 || st.Admitted != 0 {
		t.Fatalf("stats %+v, want 1 rejection and no admission", st)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	svc := New(engine.New(1), Config{MaxInflight: 1, MaxQueue: 1, MaxWait: 5 * time.Second})
	defer svc.Close()
	svc.sem <- struct{}{} // occupy the only slot

	// First request queues for the slot...
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := svc.Session("a").Run(context.Background(), experiments.Tiny, "table1")
		firstDone <- err
	}()
	waitUntil(t, "first request to queue", func() bool { return svc.queued.Load() == 1 })

	// ...so a second (distinct) selection overflows the queue instantly.
	_, _, err := svc.Session("b").Run(context.Background(), experiments.Tiny, "table5")
	if !errors.Is(err, ErrAdmission) {
		t.Fatalf("run with a full queue: %v, want ErrAdmission", err)
	}

	// Freeing the slot lets the queued request through.
	<-svc.sem
	if err := <-firstDone; err != nil {
		t.Fatalf("queued request after slot freed: %v", err)
	}
}

func TestRequestCancellationWhileQueued(t *testing.T) {
	svc := New(engine.New(1), Config{MaxInflight: 1, MaxQueue: 2, MaxWait: 5 * time.Second})
	defer svc.Close()
	svc.sem <- struct{}{}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err := svc.Session("a").Run(ctx, experiments.Tiny, "table1")
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled queued request: %v, want engine.ErrCanceled", err)
	}
}

// TestCoalescing holds a run at its starting line until an identical
// selection from a second tenant arrives: both must share one engine
// pass and return byte-identical results.
func TestCoalescing(t *testing.T) {
	eng := engine.New(2)
	svc := New(eng, Config{MaxInflight: 2})
	defer svc.Close()

	gate := make(chan struct{})
	svc.beforeRun = func(string) { <-gate }

	type outcome struct {
		results []*report.Result
		err     error
	}
	run := func(tenant string, out chan<- outcome) {
		results, _, err := svc.Session(tenant).Run(context.Background(), experiments.Tiny, "figure4")
		out <- outcome{results, err}
	}
	aDone := make(chan outcome, 1)
	go run("alice", aDone)
	waitUntil(t, "leader to register", func() bool { return svc.Stats().RunsStarted == 1 })

	bDone := make(chan outcome, 1)
	go run("bob", bDone)
	waitUntil(t, "follower to join", func() bool { return svc.Stats().RunsCoalesced == 1 })
	close(gate)

	a, b := <-aDone, <-bDone
	if a.err != nil || b.err != nil {
		t.Fatalf("coalesced runs errored: %v / %v", a.err, b.err)
	}
	aj, err := report.JSONArray(a.results)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := report.JSONArray(b.results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("coalesced requests returned different bytes")
	}
	st := svc.Stats()
	if st.RunsStarted != 1 || st.RunsCoalesced != 1 || st.Requests != 2 || st.Admitted != 1 {
		t.Fatalf("stats %+v, want 2 requests sharing 1 started run", st)
	}
	if st.Tenants != 2 {
		t.Fatalf("tenants %d, want 2", st.Tenants)
	}
}

// TestTenantBudgetDegradation: a tenant whose budget is exhausted gets
// byte-identical results (its captures overflow to the disk tier) and
// holds no memory-tier bytes; a healthy tenant replays those entries
// without re-capturing, and its own memory-tier entries are untouched by
// later starved runs.
func TestTenantBudgetDegradation(t *testing.T) {
	eng := engine.New(2)
	eng.SetTraceDir(t.TempDir())
	svc := New(eng, Config{MaxInflight: 2})
	defer svc.Close()

	starved := svc.Session("starved")
	starved.Budget().SetLimit(1)

	sr, srep, err := starved.Run(context.Background(), experiments.Tiny, "figure4")
	if err != nil {
		t.Fatalf("starved run: %v", err)
	}
	if len(srep.Errors) > 0 {
		t.Fatalf("starved run degraded cells: %v", srep.Errors)
	}
	if st := eng.Stats(); st.CachedTraces != 0 || st.SpilledTraces == 0 {
		t.Fatalf("starved tenant: %d traces cached past its budget, %d overflowed to disk", st.CachedTraces, st.SpilledTraces)
	}
	if used := starved.Budget().Used(); used != 0 {
		t.Fatalf("starved tenant holds %d bytes", used)
	}

	healthy := svc.Session("healthy")
	captures := eng.Stats().Captures
	hr, _, err := healthy.Run(context.Background(), experiments.Tiny, "figure4")
	if err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	if got := eng.Stats().Captures; got != captures {
		t.Fatalf("healthy tenant re-captured %d overflowed workloads", got-captures)
	}

	sj, err := report.JSONArray(sr)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := report.JSONArray(hr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, hj) {
		t.Fatal("degraded tenant's results differ from the healthy tenant's")
	}

	if _, _, err := healthy.Run(context.Background(), experiments.Tiny, "table5"); err != nil {
		t.Fatalf("healthy table5 run: %v", err)
	}
	cached := eng.Stats().CachedTraces
	if cached == 0 {
		t.Fatal("healthy tenant cached nothing")
	}
	// A further starved run must not evict the healthy tenant's entries.
	if _, _, err := starved.Run(context.Background(), experiments.Tiny, "figure4", "table5"); err != nil {
		t.Fatalf("second starved run: %v", err)
	}
	if got := eng.Stats().CachedTraces; got != cached {
		t.Fatalf("starved tenant disturbed the cache: %d entries, was %d", got, cached)
	}
}

// TestLastWaiterCancelReachesEnginePass pins the coalescing teardown
// contract: when the last (here, only) waiter on a run abandons it, the
// leader goroutine outlives the request — and its context must actually
// be canceled, so the engine pass stops at its next cooperative check
// instead of running the rest of the selection for nobody. The capture
// is held mid-flight while the waiter leaves, then released; the pass
// report the leader publishes must be marked Canceled.
func TestLastWaiterCancelReachesEnginePass(t *testing.T) {
	svc := New(engine.New(2), Config{MaxInflight: 2})
	defer svc.Close()

	blockStarted = make(chan struct{})
	blockRelease = make(chan struct{})
	defer func() { blockStarted, blockRelease = nil, nil }()

	type outcome struct {
		rep *engine.PassReport
		err error
	}
	after := make(chan outcome, 1)
	svc.afterRun = func(_ string, rep *engine.PassReport, err error) { after <- outcome{rep, err} }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() {
		_, _, err := svc.Session("a").Run(ctx, experiments.Tiny, "svc_block_test")
		runDone <- err
	}()

	<-blockStarted // the leader's pass is inside the capture
	cancel()       // the only waiter gives up on the run

	if err := <-runDone; !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("abandoned request returned %v, want engine.ErrCanceled", err)
	}
	// Run returning means leave() saw the last waiter out and called the
	// run's cancel. The leader is still parked in the capture; release it
	// and the pass must observe the cancellation, not keep executing.
	close(blockRelease)

	out := <-after
	if out.err != nil {
		t.Fatalf("leader finished with error %v, want a canceled report", out.err)
	}
	if out.rep == nil || !out.rep.Canceled {
		t.Fatalf("last waiter's cancel did not reach the engine pass: report %+v", out.rep)
	}
}

func TestRunAfterCloseRefused(t *testing.T) {
	svc := New(engine.New(1), Config{})
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err := svc.Session("a").Run(context.Background(), experiments.Tiny, "table1")
	if !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("run after Close: %v, want engine.ErrClosed", err)
	}
}
