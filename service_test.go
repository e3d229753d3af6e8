package memotable_test

// The multi-tenant service hammer: 8 concurrent tenant sessions drive
// the full experiment registry through one shared service. The -race
// detector supervises the coalescing path; the assertions pin the
// service's core economics — every request gets byte-identical results,
// each workload runs exactly once however many tenants ask, and the
// coalescing counters account for every request.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"memotable"
)

func TestServiceTenantHammer(t *testing.T) {
	eng := memotable.NewEngine(0)
	svc := memotable.NewService(eng, memotable.ServiceConfig{})
	defer svc.Close()

	type outcome struct {
		body []byte
		err  error
	}
	run := func(tenant string) outcome {
		results, rep, err := svc.Session(tenant).Run(context.Background(), memotable.Tiny)
		if err != nil {
			return outcome{nil, err}
		}
		if err := rep.Err(); err != nil {
			return outcome{nil, fmt.Errorf("degraded cells: %w", err)}
		}
		body, err := memotable.RenderJSONArray(results)
		return outcome{body, err}
	}

	// The leader goes first; once its run is registered, the other seven
	// tenants pile on while it is still in flight, so all of them must
	// coalesce onto the leader's single engine pass.
	const tenants = 8
	outs := make([]outcome, tenants)
	lead := make(chan outcome, 1)
	go func() { lead <- run("tenant-0") }()
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().RunsStarted == 0; {
		if time.Now().After(deadline) {
			t.Fatal("leader run never registered")
		}
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 1; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = run(fmt.Sprintf("tenant-%d", i))
		}(i)
	}
	wg.Wait()
	outs[0] = <-lead

	for i, o := range outs {
		if o.err != nil {
			t.Fatalf("tenant-%d: %v", i, o.err)
		}
		if len(o.body) == 0 {
			t.Fatalf("tenant-%d returned no results", i)
		}
		if !bytes.Equal(o.body, outs[0].body) {
			t.Fatalf("tenant-%d bytes differ from tenant-0", i)
		}
	}

	st := svc.Stats()
	if st.Requests != tenants || st.Tenants != tenants {
		t.Fatalf("service saw %d requests from %d tenants, want %d/%d",
			st.Requests, st.Tenants, tenants, tenants)
	}
	if st.RunsStarted != 1 || st.RunsCoalesced != tenants-1 {
		t.Fatalf("runs started %d, coalesced %d — want 1 shared pass with %d joiners",
			st.RunsStarted, st.RunsCoalesced, tenants-1)
	}

	// One fused run per workload, tenants notwithstanding, and every
	// run completed.
	est := eng.Stats()
	if est.Captures == 0 || est.Captures != est.Replays {
		t.Fatalf("engine started %d runs and completed %d, want equal and non-zero",
			est.Captures, est.Replays)
	}
	if n := len(eng.TraceFingerprints()); int(est.Captures) != n {
		t.Fatalf("%d runs for %d distinct workloads: workloads ran more than once", est.Captures, n)
	}
}
