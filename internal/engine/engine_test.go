package engine

import (
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

// TestEnginePoolHammersSharedTable is the engine-side -race target: Map
// fans runs of one workload into a multi-ported table, and the final
// hit/miss counts must equal a serial pass's (the infinite table's
// totals are order-independent).
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
	if parEng.Stats().Captures != 8 {
		t.Fatalf("parallel pool executed the workload %d times, want 8", parEng.Stats().Captures)
	}
}
