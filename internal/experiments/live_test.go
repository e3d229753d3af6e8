package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"memotable/internal/engine"
	"memotable/internal/isa"
	"memotable/internal/report"
	"memotable/internal/trace"
)

// liveCapture is a deterministic mixed-class workload: memoizable and
// plain classes interleaved, operands drawn from a bounded pool so the
// memo tables see real reuse.
func liveCapture(n int, pool uint64, seed int64) engine.CaptureFunc {
	return func(s trace.Sink) {
		rng := rand.New(rand.NewSource(seed))
		ops := []isa.Op{isa.OpFMul, isa.OpFDiv, isa.OpIMul, isa.OpFSqrt, isa.OpFAdd, isa.OpLoad, isa.OpIAlu}
		for i := 0; i < n; i++ {
			s.Emit(trace.Event{
				Op: ops[rng.Intn(len(ops))],
				A:  rng.Uint64() % pool,
				B:  rng.Uint64() % pool,
			})
		}
	}
}

// encodeCapture renders a capture as the v2 byte stream a live producer
// would send.
func encodeCapture(t *testing.T, capture engine.CaptureFunc) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriterV2(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	capture(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLiveBankIncrementalMatchesOffline is the acceptance differential:
// a bank fed frame-at-a-time by a live ingest session renders the
// byte-identical snapshot as a bank fed by an offline ReplayAll of the
// same workload.
func TestLiveBankIncrementalMatchesOffline(t *testing.T) {
	capture := liveCapture(80000, 700, 11)
	data := encodeCapture(t, capture)

	e := engine.New(2)
	live := NewDefaultLiveBank(99)
	var rolled int
	s := e.NewIngest(engine.IngestOptions{
		Sinks:         live.Sinks(),
		SnapshotEvery: 20000,
		OnSnapshot: func(st engine.IngestStats) {
			rolled++
			if report.Text(live.Snapshot(st)) == "" {
				t.Error("empty rolling snapshot")
			}
		},
	})
	rng := rand.New(rand.NewSource(13))
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(32<<10)
		if off+n > len(data) {
			n = len(data) - off
		}
		if err := s.Feed(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
	}
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if rolled == 0 {
		t.Fatal("no rolling snapshots fired")
	}

	offline := NewDefaultLiveBank(99)
	if _, err := engine.New(2).ReplayAll("off", capture, offline.Sinks()); err != nil {
		t.Fatal(err)
	}

	liveText := report.Text(live.Snapshot(res.Stats))
	offText := report.Text(offline.Snapshot(res.Stats))
	if liveText != offText {
		t.Fatalf("live and offline snapshots differ:\n--- live ---\n%s\n--- offline ---\n%s", liveText, offText)
	}
	for _, op := range MemoOps {
		lh, oh := live.HitRatio(op), offline.HitRatio(op)
		if lh != oh && !(math.IsNaN(lh) && math.IsNaN(oh)) {
			t.Fatalf("%s hit ratio: live %v offline %v", op, lh, oh)
		}
	}
	if live.Speedup() != offline.Speedup() {
		t.Fatalf("speedup: live %v offline %v", live.Speedup(), offline.Speedup())
	}
	if live.SketchReuse() != offline.SketchReuse() {
		t.Fatalf("sketch reuse: live %v offline %v", live.SketchReuse(), offline.SketchReuse())
	}
}

// TestLiveBankSketchErrorBound checks the bank's sketch estimate against
// the exact reuse ratio of the memoizable stream, computed with
// unbounded memory — the error-bound pin on a real trace rather than the
// synthetic key streams of the sketch package's own tests.
func TestLiveBankSketchErrorBound(t *testing.T) {
	const tolerance = 0.05
	for _, pool := range []uint64{50, 2000, 1 << 40} {
		capture := liveCapture(150000, pool, 17)
		bank := NewDefaultLiveBank(5)
		if _, err := engine.New(1).ReplayAll("sketch", capture, bank.Sinks()); err != nil {
			t.Fatal(err)
		}

		memoizable := trace.MaskOf(MemoOps...)
		type key struct {
			op   isa.Op
			a, b uint64
		}
		seen := make(map[key]bool)
		var total, hits int
		capture(trace.SinkFunc(func(ev trace.Event) {
			if !memoizable.Has(ev.Op) {
				return
			}
			total++
			k := key{ev.Op, ev.A, ev.B}
			if seen[k] {
				hits++
			}
			seen[k] = true
		}))
		exact := float64(hits) / float64(total)
		got := bank.SketchReuse()
		if diff := math.Abs(got - exact); diff > tolerance {
			t.Errorf("pool %d: sketch reuse %.4f vs exact %.4f (|err| %.4f > %.2f)", pool, got, exact, diff, tolerance)
		}
	}
}
