package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/faults"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// The engine runs every workload directly and reads and writes no trace
// store; SetStore only records the store for Store. These tests attach a
// store holding entries for the very keys the engine runs — the setup
// under which the engine once served store hits — and check that the
// store changes nothing: every replay executes its workload and delivers
// its full stream, and the store's files are left exactly as they were.

// openStore is the test shorthand for a store in dir.
func openStore(t *testing.T, dir string) *tracestore.Store {
	t.Helper()
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// dirFiles lists every file under dir, with its contents.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		files[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// sameFiles fails the test unless dir holds exactly the files of before.
func sameFiles(t *testing.T, label, dir string, before map[string]string) {
	t.Helper()
	after := dirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("%s: %d files in %s, want the %d it held", label, len(after), dir, len(before))
	}
	for path, raw := range before {
		if after[path] != raw {
			t.Fatalf("%s: %s changed or went missing", label, path)
		}
	}
}

// seedStore puts key's encoded stream into a store in dir, as an
// earlier build would have published it, and returns the entry's path.
func seedStore(t *testing.T, dir, key string, capture CaptureFunc) string {
	t.Helper()
	data, _ := encodeStream(t, capture, false)
	st := openStore(t, dir)
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	path, err := st.Lookup(key)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// countingCapture wraps emitN, counting its executions.
func countingCapture(execs *atomic.Int64, n int, period uint64) CaptureFunc {
	return func(s trace.Sink) {
		execs.Add(1)
		emitN(n, period)(s)
	}
}

// TestStoreCrossEngine: two engines sharing one store, which holds an
// entry for every key, each execute every workload themselves, deliver
// the same streams, and leave the store as it was.
func TestStoreCrossEngine(t *testing.T) {
	dir := t.TempDir()
	const keys = 10
	for i := 0; i < keys; i++ {
		seedStore(t, dir, fmt.Sprintf("k%d", i), emitN(200+i, 16))
	}
	before := dirFiles(t, dir)

	var streams [2][keys]trace.Recorder
	for ei := range streams {
		e := New(4)
		e.SetStore(openStore(t, dir))
		var execs atomic.Int64
		for i := 0; i < keys; i++ {
			capture := func(s trace.Sink) {
				execs.Add(1)
				emitN(200+i, 16)(s)
			}
			n, err := e.Replay(fmt.Sprintf("k%d", i), capture, &streams[ei][i])
			if err != nil || n != uint64(200+i) {
				t.Fatalf("engine %d replay k%d: n=%d err=%v", ei, i, n, err)
			}
		}
		if st := e.Stats(); execs.Load() != keys || st.Captures != keys || st.StoreHits != 0 || st.StorePuts != 0 {
			t.Fatalf("engine %d: %d executions, %d captures, %d store hits, %d puts; want %d, %d, 0, 0",
				ei, execs.Load(), st.Captures, st.StoreHits, st.StorePuts, keys, keys)
		}
		_ = e.Close()
	}
	for i := 0; i < keys; i++ {
		sameEvents(t, fmt.Sprintf("k%d across engines", i), streams[1][i].Events, streams[0][i].Events)
	}
	sameFiles(t, "shared store", dir, before)
}

// TestStoreCorruptEntryStaysPut damages the entry of the key an engine
// runs, in a store whose directory is read-only and whose writes fail.
// Every replay on two engines runs the workload and fails nothing, and
// the damaged file stays exactly as it was.
func TestStoreCorruptEntryStaysPut(t *testing.T) {
	dir := t.TempDir()
	const events = 64
	path := seedStore(t, dir, "victim", emitN(events, 8))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(dir, 0o755) })
	withFaults(t, "store.write") // a privileged test process could still write

	for round := 0; round < 2; round++ {
		e := New(1)
		e.SetStore(openStore(t, dir))
		var execs atomic.Int64
		for replay := 0; replay < 2; replay++ {
			var cnt trace.Counter
			if n, err := e.Replay("victim", countingCapture(&execs, events, 8), &cnt); err != nil || n != events {
				t.Fatalf("engine %d replay %d: n=%d err=%v", round, replay, n, err)
			}
		}
		if execs.Load() != 2 || e.Stats().Replays != 2 {
			t.Fatalf("engine %d: %d executions, %d replays; want 2 and 2", round, execs.Load(), e.Stats().Replays)
		}
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, raw) {
		t.Fatalf("the damaged entry changed (%v)", err)
	}
}

// TestStoreStaleVersionInvisible plants an entry of a foreign format
// generation and checks it is neither read nor deleted: the engine runs
// the workload, and the old build's file survives untouched.
func TestStoreStaleVersionInvisible(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, "t-"+strings.Repeat("ab", 16)+".v1.mtrc")
	if err := os.WriteFile(stale, []byte("old generation"), 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("stale entry counted by Len: %d, %v", n, err)
	}
	e := New(1)
	e.SetStore(st)
	var execs atomic.Int64
	var cnt trace.Counter
	if _, err := e.Replay("k", countingCapture(&execs, 50, 8), &cnt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 || cnt.Total() != 50 || e.Stats().StoreHits != 0 {
		t.Fatalf("%d executions, sink saw %d, %d store hits; want 1, 50, 0", execs.Load(), cnt.Total(), e.Stats().StoreHits)
	}
	raw, err := os.ReadFile(stale)
	if err != nil || string(raw) != "old generation" {
		t.Fatalf("stale entry modified or deleted: %q, %v", raw, err)
	}
}

// TestStoreHitOverBudgetReadFault arms store.read for every open while
// an engine, with a store holding the key's entry attached, replays the
// key: the engine opens no store entry, so the fault never fires, and
// every replay delivers the whole stream.
func TestStoreHitOverBudgetReadFault(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "big", emitN(5000, 32))
	var want trace.Recorder
	emitN(5000, 32)(&want)
	e := New(1)
	defer e.Close()
	e.SetStore(openStore(t, dir))
	plan := withFaults(t, faults.StoreRead)
	for i := 0; i < 3; i++ {
		var got trace.Recorder
		if n, err := e.Replay("big", emitN(5000, 32), &got); err != nil || n != 5000 {
			t.Fatalf("replay %d: n=%d err=%v", i, n, err)
		}
		sameEvents(t, fmt.Sprintf("replay %d", i), got.Events, want.Events)
	}
	if plan.Fired() != 0 {
		t.Fatalf("store.read fired %d times; the engine reads no store", plan.Fired())
	}
}

// cancelOnFirstBatch records events and cancels its context when the
// first batch arrives.
type cancelOnFirstBatch struct {
	rec    *trace.Recorder
	cancel context.CancelFunc
}

func (s cancelOnFirstBatch) Emit(ev trace.Event) {
	s.cancel()
	s.rec.Emit(ev)
}

// TestStoreHitOverBudgetCancelMidStream cancels the context from inside
// the sink while a key whose entry sits in the attached store runs: the
// run stops at the next batch and reports the cancellation rather than
// feeding the rest of the stream, and the store entry is left alone.
func TestStoreHitOverBudgetCancelMidStream(t *testing.T) {
	dir := t.TempDir()
	const events = 4 * blockLen
	seedStore(t, dir, "big", emitN(events, 32))
	before := dirFiles(t, dir)
	e := New(1)
	defer e.Close()
	e.SetStore(openStore(t, dir))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var execs atomic.Int64
	var rec trace.Recorder
	n, err := e.ReplayAllContext(ctx, "big", countingCapture(&execs, events, 32),
		[]trace.Sink{cancelOnFirstBatch{rec: &rec, cancel: cancel}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want one wrapping ErrCanceled", err)
	}
	if len(rec.Events) != blockLen || n != blockLen {
		t.Fatalf("sink received %d events (n=%d), want the first batch of %d", len(rec.Events), n, blockLen)
	}
	if st := e.Stats(); execs.Load() != 1 || st.Replays != 0 || st.StoreHits != 0 {
		t.Fatalf("%d executions, %d replays, %d store hits; want 1, 0, 0", execs.Load(), st.Replays, st.StoreHits)
	}
	sameFiles(t, "after the canceled run", dir, before)
}

// truncateOnFirstBatch records events and truncates a file when the
// first batch arrives.
type truncateOnFirstBatch struct {
	t    *testing.T
	rec  *trace.Recorder
	path string
	once *sync.Once
}

func (s truncateOnFirstBatch) Emit(ev trace.Event) {
	s.once.Do(func() {
		if err := os.Truncate(s.path, 100); err != nil {
			s.t.Error(err)
		}
	})
	s.rec.Emit(ev)
}

// TestStoreHitTruncatedMidReplay truncates the key's store entry from
// inside the sink while the key runs: the run reads nothing from the
// store, so it delivers the whole stream, and the next replay does too.
func TestStoreHitTruncatedMidReplay(t *testing.T) {
	dir := t.TempDir()
	const events = 200000
	path := seedStore(t, dir, "big", emitN(events, 1<<20))
	var want trace.Recorder
	emitN(events, 1<<20)(&want)
	e := New(1)
	defer e.Close()
	e.SetStore(openStore(t, dir))
	var execs atomic.Int64
	capture := countingCapture(&execs, events, 1<<20)

	var rec trace.Recorder
	n, err := e.Replay("big", capture, truncateOnFirstBatch{t: t, rec: &rec, path: path, once: new(sync.Once)})
	if err != nil || n != events {
		t.Fatalf("replay while the entry was truncated: n=%d err=%v", n, err)
	}
	sameEvents(t, "stream under the truncation", rec.Events, want.Events)
	var again trace.Recorder
	if n, err := e.Replay("big", capture, &again); err != nil || n != events {
		t.Fatalf("replay after the truncation: n=%d err=%v", n, err)
	}
	sameEvents(t, "stream after the truncation", again.Events, want.Events)
	if st := e.Stats(); execs.Load() != 2 || st.Captures != 2 || st.StorePuts != 0 {
		t.Fatalf("%d executions, %d captures, %d puts; want 2, 2, 0", execs.Load(), st.Captures, st.StorePuts)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != 100 {
		t.Fatalf("the truncated entry was replaced or removed (%v)", err)
	}
}

// TestStoreHammer drives several engines' worth of goroutines over
// overlapping keys, every one with an entry in the one shared store,
// while store I/O faults are armed: every caller runs its workload and
// sees the full event count, nothing deadlocks, no fault fires, and the
// store is left as it was.
func TestStoreHammer(t *testing.T) {
	dir := t.TempDir()
	const (
		engines    = 3
		goroutines = 8
		keys       = 12
		events     = 300
	)
	for k := 0; k < keys; k++ {
		seedStore(t, dir, fmt.Sprintf("k%d", k), emitN(events, 16))
	}
	before := dirFiles(t, dir)

	plan, err := faults.Parse("seed=7;store.read:p=0.05;store.write:p=0.05")
	if err != nil {
		t.Fatal(err)
	}
	faults.Activate(plan)
	defer faults.Activate(nil)

	var wg sync.WaitGroup
	for ei := 0; ei < engines; ei++ {
		e := New(4)
		e.SetStore(openStore(t, dir))
		var execs atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					key := (g + k) % keys // overlapping, shifted key order
					var cnt trace.Counter
					n, err := e.Replay(fmt.Sprintf("k%d", key), countingCapture(&execs, events, 16), &cnt)
					if err != nil {
						t.Errorf("engine %d key %d: %v", ei, key, err)
						return
					}
					if n != events || cnt.Total() != events {
						t.Errorf("engine %d key %d: %d events replayed, sink saw %d", ei, key, n, cnt.Total())
					}
				}
			}(g)
		}
		wg.Wait()
		if got := execs.Load(); got != goroutines*keys || e.Stats().Replays != goroutines*keys {
			t.Fatalf("engine %d: %d executions, %d replays; want %d each", ei, got, e.Stats().Replays, goroutines*keys)
		}
	}
	if plan.Fired() != 0 {
		t.Fatalf("store faults fired %d times; the engine does no store I/O", plan.Fired())
	}
	faults.Activate(nil)
	sameFiles(t, "hammered store", dir, before)
}
