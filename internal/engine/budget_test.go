package engine

import (
	"context"
	"testing"

	"memotable/internal/trace"
)

func TestBudgetReserveCommitRelease(t *testing.T) {
	b := NewBudget(100)
	if !b.Reserve(60) {
		t.Fatal("Reserve(60) under a 100 limit failed")
	}
	if b.Reserve(50) {
		t.Fatal("Reserve(50) over the limit succeeded")
	}
	b.Commit(60, 40) // reserved frame-granular, settled smaller
	if used, res := b.Used(), b.Reserved(); used != 40 || res != 0 {
		t.Fatalf("after commit: used=%d reserved=%d, want 40/0", used, res)
	}
	if b.Reserve(70) {
		t.Fatal("Reserve(70) with 40 used under a 100 limit succeeded")
	}
	if !b.Reserve(60) {
		t.Fatal("Reserve(60) with 40 used failed")
	}
	b.Release(60, 0)
	b.Release(0, 40)
	if used, res := b.Used(), b.Reserved(); used != 0 || res != 0 {
		t.Fatalf("after release: used=%d reserved=%d, want 0/0", used, res)
	}
}

func TestBudgetChildNesting(t *testing.T) {
	root := NewBudget(100)
	a := root.Child(80)
	b := root.Child(80)
	if a.Parent() != root {
		t.Fatal("child's Parent is not the root")
	}

	// A child claim shows at both levels.
	if !a.Reserve(60) {
		t.Fatal("child reserve under both limits failed")
	}
	if root.Reserved() != 60 {
		t.Fatalf("root reserved %d after child reserve, want 60", root.Reserved())
	}

	// The child's own limit binds even when the root has room.
	if a.Reserve(30) {
		t.Fatal("reserve past the child limit succeeded")
	}

	// A parent rejection unwinds the child's local claim entirely.
	if b.Reserve(60) {
		t.Fatal("reserve past the shared root succeeded")
	}
	if b.Reserved() != 0 {
		t.Fatalf("failed reserve left %d reserved on the child", b.Reserved())
	}
	if root.Reserved() != 60 {
		t.Fatalf("failed reserve left root at %d reserved, want 60", root.Reserved())
	}

	// Commit and release propagate the whole way up.
	a.Commit(60, 55)
	if root.Used() != 55 || root.Reserved() != 0 {
		t.Fatalf("root used=%d reserved=%d after child commit, want 55/0", root.Used(), root.Reserved())
	}
	a.Release(0, 55)
	if root.Used() != 0 || a.Used() != 0 {
		t.Fatalf("root used=%d child used=%d after child release, want 0/0", root.Used(), a.Used())
	}
}

func TestBudgetSetLimit(t *testing.T) {
	b := NewBudget(10)
	b.SetLimit(0)
	if b.Reserve(1) {
		t.Fatal("non-positive limit admitted a reservation")
	}
	b.SetLimit(5)
	if !b.Reserve(5) {
		t.Fatal("raised limit still rejects")
	}
	if b.Limit() != 5 {
		t.Fatalf("Limit() = %d, want 5", b.Limit())
	}
}

// TestTenantBudgetIsolation drives the engine through two tenant
// budgets nested under its root: the starved tenant's workloads overflow
// to the disk tier with byte-identical output, and never evict — or
// even touch — the healthy tenant's cached entries.
func TestTenantBudgetIsolation(t *testing.T) {
	e := New(1)
	e.SetTraceDir(t.TempDir())
	defer e.Close()
	starved := WithBudget(context.Background(), e.Budget().Child(1))
	healthy := WithBudget(context.Background(), e.Budget().Child(1<<20))

	var ref trace.Counter
	emitN(500, 64)(&ref)

	// The starved tenant's capture overflows to disk; replays read it.
	for i := 1; i <= 2; i++ {
		var cnt trace.Counter
		n, err := e.ReplayAllContext(starved, "w", emitN(500, 64), []trace.Sink{&cnt})
		if err != nil {
			t.Fatalf("starved replay %d: %v", i, err)
		}
		if n != ref.Total() || cnt.Total() != ref.Total() {
			t.Fatalf("starved replay %d delivered %d events, want %d", i, n, ref.Total())
		}
	}
	if s := e.Stats(); s.Captures != 1 || s.SpilledTraces != 1 {
		t.Fatalf("starved tenant: %d captures, %d spilled for 2 replays, want 1 and 1", s.Captures, s.SpilledTraces)
	}
	if e.Stats().CachedTraces != 0 {
		t.Fatal("starved tenant cached a trace past its budget")
	}

	// The healthy tenant caches a different workload normally.
	var cnt trace.Counter
	if _, err := e.ReplayAllContext(healthy, "h", emitN(300, 32), []trace.Sink{&cnt}); err != nil {
		t.Fatalf("healthy replay: %v", err)
	}
	if e.Stats().CachedTraces != 1 {
		t.Fatalf("healthy tenant cached %d traces, want 1", e.Stats().CachedTraces)
	}
	healthyUsed := e.Budget().Used()

	// More starved replays change nothing for the healthy tenant.
	var again trace.Counter
	if _, err := e.ReplayAllContext(starved, "w", emitN(500, 64), []trace.Sink{&again}); err != nil {
		t.Fatalf("starved replay after healthy: %v", err)
	}
	if e.Stats().CachedTraces != 1 || e.Budget().Used() != healthyUsed {
		t.Fatalf("starved tenant disturbed the cache: traces=%d used=%d (was %d)",
			e.Stats().CachedTraces, e.Budget().Used(), healthyUsed)
	}
}

// TestDeclineRearmAcrossTenants: a workload declined under one tenant's
// exhausted budget (its overflow entry failing to write) re-arms when a
// different tenant — with room — asks for it, instead of staying
// declined engine-wide.
func TestDeclineRearmAcrossTenants(t *testing.T) {
	withFaults(t, "store.write") // the starved tenant's overflow entry cannot be written
	e := New(1)
	defer e.Close()
	e.SetRetryPolicy(1, 0)
	starved := WithBudget(context.Background(), e.Budget().Child(1))
	healthy := WithBudget(context.Background(), e.Budget().Child(1<<20))

	var a trace.Counter
	if _, err := e.ReplayAllContext(starved, "w", emitN(400, 64), []trace.Sink{&a}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().CachedTraces != 0 {
		t.Fatal("starved tenant cached its workload")
	}

	var b trace.Counter
	if _, err := e.ReplayAllContext(healthy, "w", emitN(400, 64), []trace.Sink{&b}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().CachedTraces != 1 {
		t.Fatalf("healthy tenant did not re-arm the declined workload (cached=%d)", e.Stats().CachedTraces)
	}
	if a.Total() != b.Total() {
		t.Fatalf("declined and cached replays disagree: %d vs %d events", a.Total(), b.Total())
	}

	// Now cached: further replays from either tenant serve the cache.
	caps := e.Stats().Captures
	var c trace.Counter
	if _, err := e.ReplayAllContext(starved, "w", emitN(400, 64), []trace.Sink{&c}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Captures != caps {
		t.Fatal("replay of a cached workload re-executed it")
	}
}
