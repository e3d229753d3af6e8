package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"memotable/internal/faults"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// withFaults activates a fault plan for one test and guarantees
// deactivation, so the process-wide registry never leaks between tests.
func withFaults(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(plan)
	t.Cleanup(func() { faults.Activate(nil) })
	return plan
}

// TestCloseRemovesScratchStoreOnly: Close removes the scratch store an
// engine made for its overflowing captures, and nothing else in the
// trace dir; an engine overflowing into a persistent store leaves the
// entry there on Close.
func TestCloseRemovesScratchStoreOnly(t *testing.T) {
	dir := t.TempDir()
	unrelated := filepath.Join(dir, "notes.tmp")
	if err := os.WriteFile(unrelated, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(1)
	e.SetTraceDir(dir)
	e.SetCacheLimit(1)
	if err := e.Warm("w", emitN(5000, 32)); err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Dir(spillPathOf(t, e, "w"))
	if filepath.Dir(scratch) != dir {
		t.Fatalf("scratch store %s is not under the trace dir %s", scratch, dir)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(scratch); !os.IsNotExist(err) {
		t.Fatal("Close left the scratch store behind")
	}
	if _, err := os.Stat(unrelated); err != nil {
		t.Fatal("Close removed a file it did not create")
	}

	st, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(1)
	p.SetTraceDir(dir)
	p.SetStore(st)
	p.SetCacheLimit(1)
	if err := p.Warm("w", emitN(5000, 32)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if n, _ := st.Len(); n != 1 {
		t.Fatalf("persistent store holds %d entries after Close, want the overflow entry", n)
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Fatalf("an engine with a persistent store left %d files in the trace dir", len(left))
	}
}

func TestCanceledPassReportsEveryCell(t *testing.T) {
	e := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	var cnt trace.Counter
	subs := []Subscription{{
		Sinks: []trace.Sink{&cnt},
		Workloads: []PassWorkload{
			{Key: "a", Capture: emitN(100, 8)},
			{Key: "b", Capture: emitN(100, 8)},
			{Key: "c", Capture: emitN(100, 8)},
		},
	}}
	rep, err := e.RunPassContext(ctx, subs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled {
		t.Fatal("report not marked canceled")
	}
	if got := rep.FailedKeys(); len(got) != 3 {
		t.Fatalf("failed keys = %v, want all three workloads", got)
	}
	for _, ce := range rep.Errors {
		if !errors.Is(ce, ErrCanceled) || !errors.Is(ce, context.Canceled) {
			t.Fatalf("cell %q error %v, want ErrCanceled wrapping context.Canceled", ce.Key, ce.Err)
		}
	}
	if cnt.Total() != 0 {
		t.Fatalf("sink saw %d events from a canceled pass", cnt.Total())
	}
}

func TestPersistentCaptureFaultReportsCell(t *testing.T) {
	withFaults(t, "engine.capture.run")

	e := Serial()
	var cnt trace.Counter
	rep, err := e.RunPassContext(context.Background(), []Subscription{{
		Sinks:     []trace.Sink{&cnt},
		Workloads: []PassWorkload{{Key: "w", Capture: emitN(100, 8)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly one", rep.Errors)
	}
	ce := rep.Errors[0]
	if ce.Key != "w" || ce.Stage != "capture" {
		t.Fatalf("cell = %q stage %q, want workload w at capture", ce.Key, ce.Stage)
	}
	if !errors.Is(ce, ErrCaptureFailed) || !errors.Is(ce, faults.ErrInjected) {
		t.Fatalf("error %v, want ErrCaptureFailed wrapping the injected fault", ce.Err)
	}
	if rep.Canceled {
		t.Fatal("report marked canceled without cancellation")
	}
}

func TestTransientCaptureFaultRecovers(t *testing.T) {
	withFaults(t, "engine.capture.run:count=1")

	e := Serial()
	var cnt trace.Counter
	rep, err := e.RunPassContext(context.Background(), []Subscription{{
		Sinks:     []trace.Sink{&cnt},
		Workloads: []PassWorkload{{Key: "w", Capture: emitN(100, 8)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The warm phase absorbs the single fault; the replay re-captures
	// and succeeds, so the pass is clean.
	if len(rep.Errors) != 0 {
		t.Fatalf("errors = %v, want none after transient fault", rep.Errors)
	}
	if cnt.Total() != 100 {
		t.Fatalf("sink saw %d events, want 100", cnt.Total())
	}
}

func TestCapturePanicIsolatedToCell(t *testing.T) {
	// Two panics: the warm phase absorbs one, the replay the other; the
	// follow-up capture below must then run clean — proving the capture
	// lock survived both panics.
	withFaults(t, "engine.capture.run:count=2:panic")

	e := Serial()
	var cnt trace.Counter
	rep, err := e.RunPassContext(context.Background(), []Subscription{{
		Sinks:     []trace.Sink{&cnt},
		Workloads: []PassWorkload{{Key: "w", Capture: emitN(100, 8)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 || !errors.Is(rep.Errors[0], ErrCaptureFailed) {
		t.Fatalf("errors = %v, want one ErrCaptureFailed from the panic", rep.Errors)
	}
	// The capture lock must have been released despite the panic:
	// another capture on the same engine still proceeds.
	n, rerr := e.Replay("other", emitN(10, 4), &cnt)
	if rerr != nil || n != 10 {
		t.Fatalf("engine wedged after capture panic: n=%d err=%v", n, rerr)
	}
}

func TestPersistentSpillFaultDegradesToDirectRuns(t *testing.T) {
	withFaults(t, "store.write")

	e := New(2)
	defer e.Close()
	e.SetCacheLimit(64) // force every capture to overflow
	e.SetTraceDir(t.TempDir())
	e.SetRetryPolicy(2, 0)

	var cnt trace.Counter
	for i := 0; i < 2; i++ {
		n, err := e.Replay("w", emitN(5000, 32), &cnt)
		if err != nil || n != 5000 {
			t.Fatalf("replay %d: n=%d err=%v, want clean degraded run", i, n, err)
		}
	}
	if cnt.Total() != 10000 {
		t.Fatalf("sink saw %d events, want 10000", cnt.Total())
	}
	if e.Stats().DegradedCaptures == 0 {
		t.Fatal("degraded-capture counter not incremented")
	}
	if e.Stats().CachedTraces != 0 || e.Stats().SpilledTraces != 0 {
		t.Fatalf("unspillable trace stored anyway: cached=%d spilled=%d",
			e.Stats().CachedTraces, e.Stats().SpilledTraces)
	}
}

func TestTransientSpillFaultRetriesAndSpills(t *testing.T) {
	withFaults(t, "store.write:count=1")

	e := New(2)
	defer e.Close()
	e.SetCacheLimit(64)
	e.SetTraceDir(t.TempDir())
	e.SetRetryPolicy(3, 0)

	var cnt trace.Counter
	n, err := e.Replay("w", emitN(5000, 32), &cnt)
	if err != nil || n != 5000 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if e.Stats().SpilledTraces != 1 {
		t.Fatalf("spilled traces = %d, want 1 after the retry", e.Stats().SpilledTraces)
	}
	if e.Stats().DegradedCaptures != 0 {
		t.Fatal("transient fault degraded the capture instead of retrying")
	}
}

func TestSinkPanicIsolatedToCell(t *testing.T) {
	withFaults(t, "engine.sink.emit:count=1:panic")

	e := Serial()
	var a, b trace.Counter
	rep, err := e.RunPassContext(context.Background(), []Subscription{
		{Sinks: []trace.Sink{&a}, Workloads: []PassWorkload{{Key: "a", Capture: emitN(100, 8)}}},
		{Sinks: []trace.Sink{&b}, Workloads: []PassWorkload{{Key: "b", Capture: emitN(100, 8)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly one faulted cell", rep.Errors)
	}
	ce := rep.Errors[0]
	if !errors.Is(ce, ErrSinkPanic) || ce.Stage != "sink" {
		t.Fatalf("cell error %v (stage %q), want ErrSinkPanic at sink", ce.Err, ce.Stage)
	}
	// The serial engine replays the pass's serial order inline ("a" was
	// named first), so the panic lands on "a" and "b" must be untouched
	// by it.
	if ce.Key != "a" {
		t.Fatalf("faulted cell = %q, want a", ce.Key)
	}
	if b.Total() != 100 {
		t.Fatalf("surviving cell saw %d events, want 100", b.Total())
	}
}

func TestCorruptSpillExhaustsRecaptureWithTypedError(t *testing.T) {
	withFaults(t, "trace.frame.crc")

	e := Serial()
	defer e.Close()
	e.SetCacheLimit(64)
	e.SetTraceDir(t.TempDir())
	e.SetRetryPolicy(1, 0)

	var cnt trace.Counter
	_, err := e.Replay("w", emitN(5000, 32), &cnt)
	if err == nil {
		t.Fatal("replay of a permanently corrupt spill succeeded")
	}
	if !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("error %v, want ErrCorruptTrace", err)
	}
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("error %v, want trace.ErrBadTrace preserved in the chain", err)
	}
}

func TestNoFaultsMeansNoBehaviorChange(t *testing.T) {
	// Guard the hot path: with no plan active, Inject must report
	// disabled and replays must not take any fault branches.
	if faults.Enabled() {
		t.Fatal("a fault plan leaked into this test")
	}
	e := New(4)
	defer e.Close()
	var cnt trace.Counter
	n, err := e.Replay("w", emitN(1000, 16), &cnt)
	if err != nil || n != 1000 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if cnt.Total() != 1000 {
		t.Fatalf("sink saw %d events, want 1000", cnt.Total())
	}
}
