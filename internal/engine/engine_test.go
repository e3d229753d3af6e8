package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/memo"
	"memotable/internal/trace"
)

// emitN is a synthetic workload: n events with a repeating operand cycle.
func emitN(n int, period uint64) CaptureFunc {
	return func(s trace.Sink) {
		for i := 0; i < n; i++ {
			s.Emit(trace.Event{
				Op: isa.OpFMul,
				A:  uint64(i) % period,
				B:  uint64(i) % (period / 2),
			})
		}
	}
}

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 16} {
		e := New(workers)
		const n = 500
		counts := make([]atomic.Int32, n)
		e.Map(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	e := New(4)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e.Map(64, func(i int) {
		if i == 13 {
			panic("boom")
		}
	})
	t.Fatal("Map returned after a panicking cell")
}

func TestReplaySingleflight(t *testing.T) {
	e := New(8)
	var executions atomic.Int64
	capture := func(s trace.Sink) {
		executions.Add(1)
		emitN(10000, 64)(s)
	}
	const callers = 16
	var wg sync.WaitGroup
	counts := make([]uint64, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cnt trace.Counter
			n, err := e.Replay("k", capture, &cnt)
			if err != nil {
				t.Error(err)
				return
			}
			counts[c] = n
		}(c)
	}
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Fatalf("workload executed %d times under concurrent Replay, want 1", got)
	}
	for c, n := range counts {
		if n != 10000 {
			t.Fatalf("caller %d replayed %d events, want 10000", c, n)
		}
	}
	if e.Stats().CachedTraces != 1 || e.Stats().Replays != callers || e.Stats().Captures != 1 {
		t.Fatalf("cached=%d replays=%d captures=%d", e.Stats().CachedTraces, e.Stats().Replays, e.Stats().Captures)
	}
	if e.Stats().CachedBytes <= 0 {
		t.Fatal("no bytes accounted for the stored trace")
	}
}

// TestReplayDeclinesOverBudgetAndRerunsWorkload: a capture that
// overflows the budget while its store entry cannot be written is
// declined, and every request re-runs the workload, still correctly.
func TestReplayDeclinesOverBudgetAndRerunsWorkload(t *testing.T) {
	withFaults(t, "store.write")
	e := New(2)
	defer e.Close()
	e.SetCacheLimit(64) // far below the trace encoding
	e.SetRetryPolicy(1, 0)
	var cnt trace.Counter
	n, err := e.Replay("big", emitN(5000, 32), &cnt)
	if err != nil || n != 5000 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if e.Stats().CachedTraces != 0 || e.Stats().CachedBytes != 0 {
		t.Fatalf("over-budget capture was stored: %d traces, %d bytes",
			e.Stats().CachedTraces, e.Stats().CachedBytes)
	}
	// Subsequent requests re-run the workload, still correctly.
	n, err = e.Replay("big", emitN(5000, 32), &cnt)
	if err != nil || n != 5000 {
		t.Fatalf("second replay: n=%d err=%v", n, err)
	}
	if e.Stats().Captures < 3 || e.Stats().Replays != 0 {
		// one capture attempt during store + one direct run per Replay
		t.Fatalf("captures=%d replays=%d", e.Stats().Captures, e.Stats().Replays)
	}
	if cnt.Total() != 10000 {
		t.Fatalf("sink saw %d events, want 10000", cnt.Total())
	}
}

func TestWarmThenReplayServesFromCache(t *testing.T) {
	e := Serial()
	var executions atomic.Int64
	capture := func(s trace.Sink) {
		executions.Add(1)
		emitN(100, 8)(s)
	}
	e.Warm("w", capture)
	if executions.Load() != 1 || e.Stats().CachedTraces != 1 {
		t.Fatalf("warm did not capture exactly once: %d", executions.Load())
	}
	var rec trace.Recorder
	if _, err := e.Replay("w", capture, &rec); err != nil {
		t.Fatal(err)
	}
	if executions.Load() != 1 {
		t.Fatal("replay after warm re-executed the workload")
	}
	// Replayed stream must be byte-faithful: same events in order.
	want := trace.Recorder{}
	emitN(100, 8)(&want)
	if len(rec.Events) != len(want.Events) {
		t.Fatalf("replayed %d events, want %d", len(rec.Events), len(want.Events))
	}
	for i := range rec.Events {
		if rec.Events[i] != want.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, rec.Events[i], want.Events[i])
		}
	}
}

// TestEnginePoolHammersSharedTable is the engine-side -race target: Map
// fans replays of one cached trace into a multi-ported table, and
// the final hit/miss counts must equal a serial pass's (the infinite
// table's totals are order-independent).
func TestEnginePoolHammersSharedTable(t *testing.T) {
	capture := emitN(30000, 512)

	serialTable := memo.NewShared(memo.New(isa.OpFMul, memo.Infinite()), 8)
	serialEng := Serial()
	feedShared := func(e *Engine, sh *memo.Shared, cells int) {
		e.Map(cells, func(int) {
			_, err := e.Replay("hammer", capture, trace.SinkFunc(func(ev trace.Event) {
				sh.Access(ev.A, ev.B, func() uint64 { return ev.A * ev.B })
			}))
			if err != nil {
				t.Error(err)
			}
		})
	}
	feedShared(serialEng, serialTable, 8)

	parTable := memo.NewShared(memo.New(isa.OpFMul, memo.Infinite()), 8)
	parEng := New(8)
	feedShared(parEng, parTable, 8)

	if got, want := parTable.Stats(), serialTable.Stats(); got != want {
		t.Fatalf("concurrent pool stats %+v diverge from serial %+v", got, want)
	}
	if parEng.Stats().Captures != 1 {
		t.Fatalf("parallel pool executed the workload %d times, want 1", parEng.Stats().Captures)
	}
}
