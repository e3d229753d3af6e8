package engine

import (
	"context"
	"errors"
	"testing"

	"memotable/internal/faults"
	"memotable/internal/isa"
	"memotable/internal/trace"
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

// TestTransientCaptureFaultRecovers: a one-shot capture fault fails only
// the pass that met it — a run that failed may have fed its sinks, so
// nothing retries it — and the engine keeps no trace of it: the next
// pass over the same workload runs clean.
func TestTransientCaptureFaultRecovers(t *testing.T) {
	withFaults(t, "engine.capture.run:count=1")

	e := Serial()
	pass := func() (*PassReport, *trace.Counter) {
		var cnt trace.Counter
		rep, err := e.RunPassContext(context.Background(), []Subscription{{
			Sinks:     []trace.Sink{&cnt},
			Workloads: []PassWorkload{{Key: "w", Capture: emitN(100, 8)}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return rep, &cnt
	}
	if rep, _ := pass(); len(rep.Errors) != 1 || !errors.Is(rep.Errors[0], ErrCaptureFailed) {
		t.Fatalf("errors = %v, want the one injected capture failure", rep.Errors)
	}
	rep, cnt := pass()
	if len(rep.Errors) != 0 {
		t.Fatalf("errors = %v, want none after the transient fault", rep.Errors)
	}
	if cnt.Total() != 100 {
		t.Fatalf("sink saw %d events, want 100", cnt.Total())
	}
}

func TestCapturePanicIsolatedToCell(t *testing.T) {
	// One panic fails the pass's one run; the follow-up run below must
	// then run clean — proving the engine survived the panic.
	withFaults(t, "engine.capture.run:count=1:panic")

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
	// Another run on the same engine still proceeds.
	n, rerr := e.Replay("other", emitN(10, 4), &cnt)
	if rerr != nil || n != 10 {
		t.Fatalf("engine wedged after capture panic: n=%d err=%v", n, rerr)
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
	// The serial engine runs the pass's serial order inline ("a" was
	// named first), so the panic lands on "a" and "b" must be untouched
	// by it.
	if ce.Key != "a" {
		t.Fatalf("faulted cell = %q, want a", ce.Key)
	}
	if b.Total() != 100 {
		t.Fatalf("surviving cell saw %d events, want 100", b.Total())
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

// TestCancelStopsRunningWorkload: a context canceled while a workload is
// running stops it at its next batch, with the sinks fed only the
// batches delivered before the cancel; the cell fails with ErrCanceled.
func TestCancelStopsRunningWorkload(t *testing.T) {
	const events = 40 * blockLen
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var emitted int
	capture := func(s trace.Sink) {
		for emitted = 0; emitted < events; emitted++ {
			if emitted == 5*blockLen+100 {
				cancel()
			}
			s.Emit(trace.Event{Op: isa.OpFMul, A: uint64(emitted), B: 3})
		}
	}
	e := Serial()
	var cnt trace.Counter
	rep, err := e.RunPassContext(ctx, []Subscription{{
		Sinks:     []trace.Sink{&cnt},
		Workloads: []PassWorkload{{Key: "w", Capture: capture}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Canceled || len(rep.Errors) != 1 || !errors.Is(rep.Errors[0], ErrCanceled) ||
		!errors.Is(rep.Errors[0], context.Canceled) || rep.Errors[0].Stage != "schedule" {
		t.Fatalf("report canceled=%v errors=%v, want one ErrCanceled cell at schedule", rep.Canceled, rep.Errors)
	}
	if emitted >= events {
		t.Fatalf("the workload ran to its last event (%d) after the cancel", emitted)
	}
	if emitted > 6*blockLen || cnt.Total() != 5*blockLen {
		t.Fatalf("workload emitted %d events and the sink saw %d; want a stop at the batch after the cancel (%d delivered)",
			emitted, cnt.Total(), 5*blockLen)
	}
	if st := e.Stats(); st.Replays != 0 || len(e.TraceFingerprints()) != 0 {
		t.Fatalf("canceled run counted as complete: %d replays, fingerprints %v", st.Replays, e.TraceFingerprints())
	}
}

// panicSink panics on its first event.
type panicSink struct{}

func (panicSink) Emit(trace.Event) { panic("sink exploded") }

// TestFailureStageAttribution: every way a run can fail lands in the pass
// report as one cell, with the stage and sentinel of the edge that
// failed: the workload itself (a capture.run fault or panic, or a panic
// in the workload) at capture, a panicking sink (its own or an injected
// sink.emit panic) at sink, an injected sink.emit error at replay, and
// cancellation at schedule.
func TestFailureStageAttribution(t *testing.T) {
	workloadPanics := func(s trace.Sink) {
		emitN(100, 8)(s)
		panic("workload exploded")
	}
	for _, tc := range []struct {
		name    string
		faults  string
		capture CaptureFunc
		sink    trace.Sink
		cancel  bool
		stage   string
		want    error
	}{
		{name: "capture.run error", faults: "engine.capture.run", stage: "capture", want: ErrCaptureFailed},
		{name: "capture.run panic", faults: "engine.capture.run:panic", stage: "capture", want: ErrCaptureFailed},
		{name: "workload panic", capture: workloadPanics, stage: "capture", want: ErrCaptureFailed},
		{name: "sink panic", sink: panicSink{}, stage: "sink", want: ErrSinkPanic},
		{name: "sink.emit panic", faults: "engine.sink.emit:panic", stage: "sink", want: ErrSinkPanic},
		{name: "sink.emit error", faults: "engine.sink.emit", stage: "replay", want: faults.ErrInjected},
		{name: "canceled", cancel: true, stage: "schedule", want: ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != "" {
				withFaults(t, tc.faults)
			}
			capture := tc.capture
			if capture == nil {
				capture = emitN(3*blockLen, 8)
			}
			sink := tc.sink
			if sink == nil {
				sink = &trace.Counter{}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			e := New(2)
			rep, err := e.RunPassContext(ctx, []Subscription{{
				Sinks:     []trace.Sink{sink},
				Workloads: []PassWorkload{{Key: "w", Capture: capture}},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Errors) != 1 {
				t.Fatalf("errors = %v, want exactly one", rep.Errors)
			}
			if ce := rep.Errors[0]; ce.Key != "w" || ce.Stage != tc.stage || !errors.Is(ce, tc.want) {
				t.Fatalf("cell %q stage %q err %v, want w at %s wrapping %v", ce.Key, ce.Stage, ce.Err, tc.stage, tc.want)
			}
			if n := e.Stats().Replays; n != 0 {
				t.Fatalf("failed run counted as %d completed replays", n)
			}
		})
	}
}

// TestPersistentSpillFaultDegradesToDirectRuns: with store writes
// failing on every attempt and a store and trace dir set, every replay
// is a direct run of the workload that delivers its full stream — no
// store write is ever attempted, so the fault never fires.
func TestPersistentSpillFaultDegradesToDirectRuns(t *testing.T) {
	plan := withFaults(t, "store.write")

	e := New(2)
	defer e.Close()
	e.SetTraceDir(t.TempDir())
	e.SetStore(openStore(t, t.TempDir()))

	var cnt trace.Counter
	for i := 0; i < 2; i++ {
		n, err := e.Replay("w", emitN(5000, 32), &cnt)
		if err != nil || n != 5000 {
			t.Fatalf("replay %d: n=%d err=%v, want a clean direct run", i, n, err)
		}
	}
	if cnt.Total() != 10000 {
		t.Fatalf("sink saw %d events, want 10000", cnt.Total())
	}
	if st := e.Stats(); st.Captures != 2 || st.Replays != 2 || st.DegradedCaptures != 0 {
		t.Fatalf("captures=%d replays=%d degraded=%d, want 2, 2 and 0", st.Captures, st.Replays, st.DegradedCaptures)
	}
	if plan.Fired() != 0 {
		t.Fatalf("store.write fired %d times; the engine writes no store", plan.Fired())
	}
}
