package engine

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/trace"
)

// countingCapture wraps emitN and counts workload executions.
func countingCapture(execs *atomic.Int64, n int, period uint64) CaptureFunc {
	return func(s trace.Sink) {
		execs.Add(1)
		emitN(n, period)(s)
	}
}

// TestDeclinedCaptureRetriesAfterBudgetRaise is the regression test for
// the consumed-once decline: a capture declined for budget must become
// storable again once SetCacheLimit raises the budget, instead of
// re-running the workload on every replay forever.
func TestDeclinedCaptureRetriesAfterBudgetRaise(t *testing.T) {
	e := Serial()
	e.SetCacheLimit(64) // far below the ~15 KB encoding
	var execs atomic.Int64
	capture := countingCapture(&execs, 5000, 32)

	var c1 trace.Counter
	n, err := e.Replay("k", capture, &c1)
	if err != nil || n != 5000 {
		t.Fatalf("declined replay: n=%d err=%v", n, err)
	}
	if e.Stats().CachedTraces != 0 || e.Stats().Replays != 0 {
		t.Fatalf("over-budget capture was stored: cached=%d replays=%d", e.Stats().CachedTraces, e.Stats().Replays)
	}

	e.SetCacheLimit(1 << 20)
	var c2 trace.Counter
	n, err = e.Replay("k", capture, &c2)
	if err != nil || n != 5000 {
		t.Fatalf("post-raise replay: n=%d err=%v", n, err)
	}
	if e.Stats().CachedTraces != 1 {
		t.Fatalf("raised budget did not re-arm the declined capture: cached=%d", e.Stats().CachedTraces)
	}
	if e.Stats().Replays != 1 {
		t.Fatalf("post-raise replay not served from cache: replays=%d", e.Stats().Replays)
	}
	execsAfterRecapture := execs.Load()

	var c3 trace.Counter
	if n, err = e.Replay("k", capture, &c3); err != nil || n != 5000 {
		t.Fatalf("third replay: n=%d err=%v", n, err)
	}
	if execs.Load() != execsAfterRecapture {
		t.Fatal("cached entry re-executed the workload")
	}
	if c3.Total() != 5000 {
		t.Fatalf("sink saw %d events, want 5000", c3.Total())
	}
}

// TestDeclinedCaptureRetriesWhenSpillTierAppears: the other re-arm
// trigger — a decline must be retried once SetTraceDir enables disk.
func TestDeclinedCaptureRetriesWhenSpillTierAppears(t *testing.T) {
	e := Serial()
	e.SetCacheLimit(64)
	var execs atomic.Int64
	capture := countingCapture(&execs, 5000, 32)

	var c trace.Counter
	if n, err := e.Replay("k", capture, &c); err != nil || n != 5000 {
		t.Fatalf("declined replay: n=%d err=%v", n, err)
	}
	if e.Stats().SpilledTraces != 0 {
		t.Fatal("spilled without a trace dir")
	}

	e.SetTraceDir(t.TempDir())
	if n, err := e.Replay("k", capture, &c); err != nil || n != 5000 {
		t.Fatalf("post-spill-enable replay: n=%d err=%v", n, err)
	}
	if e.Stats().SpilledTraces != 1 {
		t.Fatalf("enabling the spill tier did not re-arm the declined capture: spilled=%d", e.Stats().SpilledTraces)
	}
	if e.Stats().Replays != 1 {
		t.Fatalf("replay not served from disk: replays=%d", e.Stats().Replays)
	}
}

// TestConcurrentStoresNeverExceedBudget is the regression test for the
// reservation bugfix: captures reserve bytes against the budget before
// buffering, so used+reserved can never exceed the limit no matter how
// many stores run concurrently — the old code let each concurrent store
// buffer up to the full remaining budget before any accounting.
func TestConcurrentStoresNeverExceedBudget(t *testing.T) {
	e := New(8)
	// Each capture encodes to ~120 KB (40000 events x ~3 bytes, two v2
	// frames), so the 200 KB budget fits exactly one.
	const limit = 200 << 10
	e.SetCacheLimit(limit)

	var violated atomic.Bool
	check := func() {
		if e.budget.Used()+e.budget.Reserved() > limit {
			violated.Store(true)
		}
	}

	const keys = 6
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			capture := func(s trace.Sink) {
				for i := 0; i < 40000; i++ {
					s.Emit(trace.Event{Op: isa.OpFMul, A: uint64(i % 512), B: uint64(i % 256)})
					if i%1000 == 0 {
						check()
					}
				}
			}
			var c trace.Counter
			n, err := e.Replay(string(rune('a'+k)), capture, &c)
			if err != nil || n != 40000 {
				t.Errorf("key %d: n=%d err=%v", k, n, err)
			}
			check()
		}(k)
	}
	wg.Wait()
	check()

	if violated.Load() {
		t.Fatal("used+reserved exceeded the cache limit during concurrent stores")
	}
	if e.Stats().CachedBytes > limit {
		t.Fatalf("cached %d bytes over the %d limit", e.Stats().CachedBytes, limit)
	}
	if e.Stats().CachedTraces != 1 {
		t.Fatalf("budget fits exactly one capture, stored %d", e.Stats().CachedTraces)
	}
	if reserved := e.budget.Reserved(); reserved != 0 {
		t.Fatalf("%d bytes still reserved after all stores settled", reserved)
	}
}

// TestOverBudgetCaptureSpillsToDisk is the acceptance scenario: with a
// small memory budget and a TraceDir, a large capture is executed once,
// spilled, and every replay streams from disk — no repeated captures.
func TestOverBudgetCaptureSpillsToDisk(t *testing.T) {
	dir := t.TempDir()
	e := New(2)
	e.SetCacheLimit(64)
	e.SetTraceDir(dir)
	var execs atomic.Int64
	capture := countingCapture(&execs, 50000, 512)

	var c1 trace.Counter
	n, err := e.Replay("big", capture, &c1)
	if err != nil || n != 50000 {
		t.Fatalf("first replay: n=%d err=%v", n, err)
	}
	var c2 trace.Counter
	n, err = e.Replay("big", capture, &c2)
	if err != nil || n != 50000 {
		t.Fatalf("second replay: n=%d err=%v", n, err)
	}

	if got := execs.Load(); got != 1 {
		t.Fatalf("workload executed %d times, want 1 (spill tier should absorb the overflow)", got)
	}
	if e.Stats().Captures != 1 || e.Stats().Replays != 2 {
		t.Fatalf("captures=%d replays=%d, want 1 and 2", e.Stats().Captures, e.Stats().Replays)
	}
	if e.Stats().CachedTraces != 0 || e.Stats().SpilledTraces != 1 {
		t.Fatalf("cached=%d spilled=%d, want 0 and 1", e.Stats().CachedTraces, e.Stats().SpilledTraces)
	}
	if c1 != c2 {
		t.Fatal("disk replays diverged")
	}

	// The replayed stream must be event-faithful to a direct emission.
	var want trace.Counter
	emitN(50000, 512)(&want)
	if c1 != want {
		t.Fatalf("disk replay stats %+v diverge from direct emission %+v", c1.Counts, want.Counts)
	}

	files, err := filepath.Glob(filepath.Join(dir, "trace-*.mtrc"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spill dir holds %d trace files (%v), want 1", len(files), err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if files, _ = filepath.Glob(filepath.Join(dir, "trace-*.mtrc")); len(files) != 0 {
		t.Fatalf("Close left %d spill files", len(files))
	}
}

// spillPathOf digs out the spill file backing key.
func spillPathOf(t *testing.T, e *Engine, key string) string {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.traces[key]
	if ent == nil || ent.state != stateDisk {
		t.Fatalf("entry %q not spilled", key)
	}
	return ent.path
}

// TestTornSpillFileRecapturedTransparently truncates a spill file
// mid-frame: the next replay must detect it via CRC before feeding the
// sink, re-capture the workload, and still deliver the full stream.
func TestTornSpillFileRecapturedTransparently(t *testing.T) {
	e := Serial()
	e.SetCacheLimit(1)
	e.SetTraceDir(t.TempDir())
	var execs atomic.Int64
	capture := countingCapture(&execs, 30000, 128)

	var c trace.Counter
	if n, err := e.Replay("big", capture, &c); err != nil || n != 30000 {
		t.Fatalf("first replay: n=%d err=%v", n, err)
	}
	path := spillPathOf(t, e, "big")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/3); err != nil {
		t.Fatal(err)
	}

	var c2 trace.Counter
	n, err := e.Replay("big", capture, &c2)
	if err != nil || n != 30000 {
		t.Fatalf("replay over torn spill: n=%d err=%v", n, err)
	}
	if c2.Total() != 30000 {
		t.Fatalf("sink saw %d events, want 30000 (no partial feed before detection)", c2.Total())
	}
	if execs.Load() != 2 {
		t.Fatalf("workload executed %d times, want 2 (one re-capture)", execs.Load())
	}
	if e.Stats().Recaptures != 1 {
		t.Fatalf("recaptures=%d, want 1", e.Stats().Recaptures)
	}
	if newPath := spillPathOf(t, e, "big"); newPath == path {
		t.Fatal("torn spill file was not replaced")
	}

	// And the replacement serves replays without further executions.
	var c3 trace.Counter
	if n, err := e.Replay("big", capture, &c3); err != nil || n != 30000 {
		t.Fatalf("replay after recapture: n=%d err=%v", n, err)
	}
	if execs.Load() != 2 {
		t.Fatal("healthy respilled trace re-executed the workload")
	}
}

// TestCorruptSpillFileDetectedByCRC flips one payload byte — the file
// keeps its length, only the checksum can catch it.
func TestCorruptSpillFileDetectedByCRC(t *testing.T) {
	e := Serial()
	e.SetCacheLimit(1)
	e.SetTraceDir(t.TempDir())
	var execs atomic.Int64
	capture := countingCapture(&execs, 30000, 128)

	var c trace.Counter
	if n, err := e.Replay("big", capture, &c); err != nil || n != 30000 {
		t.Fatalf("first replay: n=%d err=%v", n, err)
	}
	path := spillPathOf(t, e, "big")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var c2 trace.Counter
	n, err := e.Replay("big", capture, &c2)
	if err != nil || n != 30000 || c2.Total() != 30000 {
		t.Fatalf("replay over corrupt spill: n=%d total=%d err=%v", n, c2.Total(), err)
	}
	if execs.Load() != 2 || e.Stats().Recaptures != 1 {
		t.Fatalf("execs=%d recaptures=%d, want 2 and 1", execs.Load(), e.Stats().Recaptures)
	}
}

// TestSpillReplayMatchesMemoryReplay pins byte-faithfulness across
// tiers: the identical workload replayed from disk and from memory must
// produce identical event streams.
func TestSpillReplayMatchesMemoryReplay(t *testing.T) {
	capture := emitN(20000, 96)

	mem := Serial()
	var fromMem trace.Recorder
	if _, err := mem.Replay("k", capture, &fromMem); err != nil {
		t.Fatal(err)
	}
	if mem.Stats().CachedTraces != 1 {
		t.Fatal("memory engine did not cache")
	}

	disk := Serial()
	disk.SetCacheLimit(1)
	disk.SetTraceDir(t.TempDir())
	var fromDisk trace.Recorder
	if _, err := disk.Replay("k", capture, &fromDisk); err != nil {
		t.Fatal(err)
	}
	if disk.Stats().SpilledTraces != 1 {
		t.Fatal("disk engine did not spill")
	}

	if len(fromMem.Events) != len(fromDisk.Events) {
		t.Fatalf("tier event counts diverge: %d vs %d", len(fromMem.Events), len(fromDisk.Events))
	}
	for i := range fromMem.Events {
		if fromMem.Events[i] != fromDisk.Events[i] {
			t.Fatalf("event %d diverges across tiers: %+v != %+v", i, fromMem.Events[i], fromDisk.Events[i])
		}
	}
}

// TestSpillSingleflight: concurrent replays of one over-budget key must
// still execute the workload exactly once, all streaming from the one
// spill file.
func TestSpillSingleflight(t *testing.T) {
	e := New(8)
	e.SetCacheLimit(1)
	e.SetTraceDir(t.TempDir())
	var execs atomic.Int64
	capture := countingCapture(&execs, 20000, 64)

	const callers = 12
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cnt trace.Counter
			n, err := e.Replay("k", capture, &cnt)
			if err != nil || n != 20000 {
				t.Errorf("n=%d err=%v", n, err)
			}
		}()
	}
	wg.Wait()
	if execs.Load() != 1 {
		t.Fatalf("workload executed %d times under concurrent spill replay, want 1", execs.Load())
	}
	if e.Stats().Replays != callers || e.Stats().SpilledTraces != 1 {
		t.Fatalf("replays=%d spilled=%d", e.Stats().Replays, e.Stats().SpilledTraces)
	}
}
