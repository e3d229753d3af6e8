package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// countingCapture wraps emitN and counts workload executions.
func countingCapture(execs *atomic.Int64, n int, period uint64) CaptureFunc {
	return func(s trace.Sink) {
		execs.Add(1)
		emitN(n, period)(s)
	}
}

// TestDeclinedCaptureRetriesAfterBudgetRaise is the regression test for
// the consumed-once decline: a capture declined because its overflow
// entry cannot be written must become storable again once SetCacheLimit
// raises the budget, instead of re-running the workload on every replay
// forever.
func TestDeclinedCaptureRetriesAfterBudgetRaise(t *testing.T) {
	withFaults(t, "store.write")
	e := Serial()
	e.SetCacheLimit(64) // far below the ~15 KB encoding
	e.SetTraceDir(t.TempDir())
	e.SetRetryPolicy(1, 0)
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

// TestConcurrentStoresNeverExceedBudget is the regression test for the
// reservation bugfix: captures reserve bytes against the budget before
// buffering, so used+reserved can never exceed the limit no matter how
// many stores run concurrently — the old code let each concurrent store
// buffer up to the full remaining budget before any accounting.
func TestConcurrentStoresNeverExceedBudget(t *testing.T) {
	e := New(8)
	e.SetTraceDir(t.TempDir())
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
// small memory budget, a large capture is executed once, overflows into
// a scratch store entry under the trace dir, and every replay streams
// from disk — no repeated captures. Close removes the scratch store.
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

	files, err := filepath.Glob(filepath.Join(dir, "*", "t-*.mtrc"))
	if err != nil || len(files) != 1 || files[0] != spillPathOf(t, e, "big") {
		t.Fatalf("trace dir holds entries %v (%v), want the one overflow entry", files, err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("Close left %d files in the trace dir", len(left))
	}
}

// spillPathOf digs out the store entry backing key's disk-tier entry.
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

// TestTornSpillFileRecapturedTransparently truncates an overflow entry
// mid-frame: the next replay must detect it via CRC before feeding the
// sink, re-capture the workload, and still deliver the full stream.
func TestTornSpillFileRecapturedTransparently(t *testing.T) {
	recapturesDamagedOverflow(t, func(path string, data []byte) error {
		return os.Truncate(path, int64(len(data)/3))
	})
}

// TestCorruptSpillFileDetectedByCRC flips one payload byte — the entry
// keeps its length, only the checksum can catch it.
func TestCorruptSpillFileDetectedByCRC(t *testing.T) {
	recapturesDamagedOverflow(t, func(path string, data []byte) error {
		data[len(data)/2] ^= 0x20
		return os.WriteFile(path, data, 0o644)
	})
}

// recapturesDamagedOverflow damages a capture's overflow entry — in a
// scratch store, and in an attached persistent store — and checks the
// next replay re-captures it transparently, healing the entry, and the
// one after replays it without executing the workload.
func recapturesDamagedOverflow(t *testing.T, damage func(path string, data []byte) error) {
	for _, persistent := range []bool{false, true} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			e := Serial()
			defer e.Close()
			e.SetCacheLimit(1)
			e.SetTraceDir(t.TempDir())
			if persistent {
				st, err := tracestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				e.SetStore(st)
			}
			var execs atomic.Int64
			capture := countingCapture(&execs, 30000, 128)
			for i := 0; i < 3; i++ {
				var c trace.Counter
				if n, err := e.Replay("big", capture, &c); err != nil || n != 30000 || c.Total() != 30000 {
					t.Fatalf("replay %d: n=%d, sink saw %d, err=%v", i, n, c.Total(), err)
				}
				path := spillPathOf(t, e, "big")
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := damage(path, data); err != nil {
						t.Fatal(err)
					}
				} else if _, err := trace.VerifyBytes(data[:len(data)-16]); err != nil {
					t.Fatalf("replay %d left a damaged entry: %v", i, err)
				}
			}
			if s := e.Stats(); execs.Load() != 2 || s.Recaptures != 1 || s.SpilledTraces != 1 {
				t.Fatalf("execs=%d recaptures=%d spilled=%d, want 2, 1 and 1", execs.Load(), s.Recaptures, s.SpilledTraces)
			}
		})
	}
}

// TestEnginesSharingTraceDirKeepTheirOverflow is the regression test for
// processes sharing a trace dir: one engine's Close must not remove the
// overflow entry another engine is still streaming. The blocked capture
// settles on its first try.
func TestEnginesSharingTraceDirKeepTheirOverflow(t *testing.T) {
	dir := t.TempDir()
	a, b := Serial(), Serial()
	for _, e := range []*Engine{a, b} {
		e.SetTraceDir(dir)
		e.SetCacheLimit(1)
	}
	defer b.Close()
	if err := a.Warm("a", emitN(20000, 64)); err != nil {
		t.Fatal(err)
	}

	midStream := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	capture := func(s trace.Sink) {
		emitN(100000, 512)(s) // several frames, already in the overflow entry
		once.Do(func() {
			close(midStream)
			<-release
		})
		emitN(100000, 256)(s)
	}
	done := make(chan error, 1)
	go func() { done <- b.Warm("b", capture) }()
	<-midStream
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := b.Stats(); s.Captures != 1 || s.SpillRetries != 0 || s.SpilledTraces != 1 {
		t.Fatalf("captures=%d spill retries=%d spilled=%d, want 1, 0 and 1", s.Captures, s.SpillRetries, s.SpilledTraces)
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
