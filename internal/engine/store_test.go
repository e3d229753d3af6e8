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

// openStore is the test shorthand for a store in a fresh temp dir.
func openStore(t *testing.T, dir string) *tracestore.Store {
	t.Helper()
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeEntries lists the sealed entry files in a store directory.
func storeEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "t-*.mtrc"))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestStoreCrossEngine(t *testing.T) {
	dir := t.TempDir()
	const keys = 10

	// First engine: cold store, every workload executes and is published.
	a := New(4)
	a.SetStore(openStore(t, dir))
	var aExecs atomic.Int64
	for i := 0; i < keys; i++ {
		capture := func(s trace.Sink) {
			aExecs.Add(1)
			emitN(200+i, 16)(s)
		}
		var cnt trace.Counter
		n, err := a.Replay(fmt.Sprintf("k%d", i), capture, &cnt)
		if err != nil || n != uint64(200+i) {
			t.Fatalf("cold replay k%d: n=%d err=%v", i, n, err)
		}
	}
	if aExecs.Load() != keys || a.Stats().Captures != keys {
		t.Fatalf("cold engine executed %d workloads, %d captures, want %d",
			aExecs.Load(), a.Stats().Captures, keys)
	}
	if a.Stats().StoreHits != 0 || a.Stats().StorePuts != keys {
		t.Fatalf("cold engine store traffic: %d hits, %d puts", a.Stats().StoreHits, a.Stats().StorePuts)
	}

	// Second engine, second "process": every workload must come from the
	// store without executing anything.
	b := New(4)
	b.SetStore(openStore(t, dir))
	var bExecs atomic.Int64
	for i := 0; i < keys; i++ {
		capture := func(s trace.Sink) {
			bExecs.Add(1)
			emitN(200+i, 16)(s)
		}
		var cnt trace.Counter
		n, err := b.Replay(fmt.Sprintf("k%d", i), capture, &cnt)
		if err != nil || n != uint64(200+i) {
			t.Fatalf("warm replay k%d: n=%d err=%v", i, n, err)
		}
	}
	if bExecs.Load() != 0 || b.Stats().Captures != 0 {
		t.Fatalf("warm engine executed %d workloads, %d captures, want 0",
			bExecs.Load(), b.Stats().Captures)
	}
	if b.Stats().StoreHits != keys || b.Stats().StorePuts != 0 {
		t.Fatalf("warm engine store traffic: %d hits, %d puts", b.Stats().StoreHits, b.Stats().StorePuts)
	}
}

// TestStoreCorruptEntryRecapture vandalizes a stored entry at every byte
// offset — one bit flip and one truncation per offset — and checks that
// a fresh engine transparently re-captures exactly once and heals the
// store for the engine after it.
func TestStoreCorruptEntryRecapture(t *testing.T) {
	dir := t.TempDir()
	const events = 64

	seed := New(1)
	seed.SetStore(openStore(t, dir))
	var cnt trace.Counter
	if _, err := seed.Replay("victim", emitN(events, 8), &cnt); err != nil {
		t.Fatal(err)
	}
	entries := storeEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(entries))
	}
	path := entries[0]
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	damage := func(offset int, truncate bool) []byte {
		raw := append([]byte(nil), orig...)
		if truncate {
			return raw[:offset]
		}
		raw[offset] ^= 0x20
		return raw
	}

	for offset := 0; offset < len(orig); offset++ {
		for _, truncate := range []bool{false, true} {
			if err := os.WriteFile(path, damage(offset, truncate), 0o644); err != nil {
				t.Fatal(err)
			}
			e := New(1)
			e.SetStore(openStore(t, dir))
			var execs atomic.Int64
			capture := func(s trace.Sink) {
				execs.Add(1)
				emitN(events, 8)(s)
			}
			// Two replays: the first re-captures, the second must ride the
			// engine's own cache — exactly one execution total.
			for round := 0; round < 2; round++ {
				var cnt trace.Counter
				n, err := e.Replay("victim", capture, &cnt)
				if err != nil || n != events {
					t.Fatalf("offset %d truncate=%v round %d: n=%d err=%v",
						offset, truncate, round, n, err)
				}
			}
			if got := execs.Load(); got != 1 {
				t.Fatalf("offset %d truncate=%v: workload executed %d times, want exactly 1",
					offset, truncate, got)
			}
			// A hit whose entry fails its read is no hit.
			if got := e.Stats().StoreHits; got != 0 {
				t.Fatalf("offset %d truncate=%v: %d store hits counted, want 0", offset, truncate, got)
			}
			// The re-capture's put healed the entry: the next engine hits.
			h := New(1)
			h.SetStore(openStore(t, dir))
			var cnt2 trace.Counter
			if _, err := h.Replay("victim", emitN(events, 8), &cnt2); err != nil {
				t.Fatalf("offset %d truncate=%v: healed store replay: %v", offset, truncate, err)
			}
			if h.Stats().StoreHits != 1 || h.Stats().Captures != 0 {
				t.Fatalf("offset %d truncate=%v: store not healed (%d hits, %d captures)",
					offset, truncate, h.Stats().StoreHits, h.Stats().Captures)
			}
		}
	}
}

// TestStoreCorruptEntryStaysPut damages an entry in a store whose
// directory is read-only and whose writes fail, so nothing can remove or
// replace the damaged file. A replay still runs the workload exactly
// once and fails nothing: after the read rejects the entry, the
// re-capture skips the store instead of finding the same file again.
// A second engine over the still-damaged store does the same.
func TestStoreCorruptEntryStaysPut(t *testing.T) {
	dir := t.TempDir()
	const events = 64
	seed := New(1)
	seed.SetStore(openStore(t, dir))
	var cnt trace.Counter
	if _, err := seed.Replay("victim", emitN(events, 8), &cnt); err != nil {
		t.Fatal(err)
	}
	path := storeEntries(t, dir)[0]
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
		capture := func(s trace.Sink) {
			execs.Add(1)
			emitN(events, 8)(s)
		}
		for replay := 0; replay < 2; replay++ {
			var cnt trace.Counter
			if n, err := e.Replay("victim", capture, &cnt); err != nil || n != events {
				t.Fatalf("engine %d replay %d: n=%d err=%v", round, replay, n, err)
			}
		}
		st := e.Stats()
		if execs.Load() != 1 || st.StoreHits != 0 || st.Recaptures != 1 || st.StorePuts != 0 {
			t.Fatalf("engine %d: %d executions, %d hits, %d recaptures, %d puts; want 1, 0, 1, 0",
				round, execs.Load(), st.StoreHits, st.Recaptures, st.StorePuts)
		}
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, raw) {
		t.Fatalf("the damaged entry changed (%v)", err)
	}
}

// TestStoreStaleVersionInvisible plants an entry of a foreign format
// generation and checks it is neither read nor deleted: the engine
// captures as on a miss, and the old build's file survives untouched.
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
	capture := func(s trace.Sink) {
		execs.Add(1)
		emitN(50, 8)(s)
	}
	var cnt trace.Counter
	if _, err := e.Replay("k", capture, &cnt); err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 1 || e.Stats().StoreHits != 0 {
		t.Fatalf("stale entry served a hit: %d execs, %d hits", execs.Load(), e.Stats().StoreHits)
	}
	raw, err := os.ReadFile(stale)
	if err != nil || string(raw) != "old generation" {
		t.Fatalf("stale entry modified or deleted: %q, %v", raw, err)
	}
}

// seedStore publishes key's capture to a store in dir through a
// default-budget engine and returns the events it recorded and the path
// of the sealed entry.
func seedStore(t *testing.T, dir, key string, capture CaptureFunc) ([]trace.Event, string) {
	t.Helper()
	seed := New(1)
	defer seed.Close()
	seed.SetStore(openStore(t, dir))
	var rec trace.Recorder
	if _, err := seed.Replay(key, capture, &rec); err != nil {
		t.Fatal(err)
	}
	if seed.Stats().StorePuts != 1 {
		t.Fatalf("seed engine puts = %d, want 1", seed.Stats().StorePuts)
	}
	entries := storeEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("store holds %d entries, want 1", len(entries))
	}
	return rec.Events, entries[0]
}

// overBudget builds an engine whose cache budget is far below any
// stored trace, attached to the store in dir, and a capture of key's
// workload that counts its executions.
func overBudget(t *testing.T, dir string, capture CaptureFunc) (*Engine, CaptureFunc, *atomic.Int64) {
	t.Helper()
	e := New(1)
	e.SetCacheLimit(64)
	e.SetStore(openStore(t, dir))
	execs := new(atomic.Int64)
	return e, func(s trace.Sink) {
		execs.Add(1)
		capture(s)
	}, execs
}

// TestStoreHitRespectsBudget pins the over-budget contract: a store hit
// that does not fit the engine's cache budget is replayed in place from
// the store file. Nothing is executed, read into the memory tier,
// spilled or put back, and the engine leaves the file alone on Close.
func TestStoreHitRespectsBudget(t *testing.T) {
	dir := t.TempDir()
	want, path := seedStore(t, dir, "big", emitN(5000, 32))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	e, capture, execs := overBudget(t, dir, emitN(5000, 32))
	for round := 0; round < 2; round++ {
		var got trace.Recorder
		n, err := e.Replay("big", capture, &got)
		if err != nil || n != 5000 {
			t.Fatalf("round %d: n=%d err=%v", round, n, err)
		}
		sameEvents(t, fmt.Sprintf("round %d", round), got.Events, want)
	}
	st := e.Stats()
	if st.StoreHits != 1 || st.Captures != 0 || execs.Load() != 0 || st.StorePuts != 0 {
		t.Fatalf("store traffic: %d hits, %d captures, %d executions, %d puts; want 1, 0, 0, 0",
			st.StoreHits, st.Captures, execs.Load(), st.StorePuts)
	}
	if st.CachedBytes != 0 || st.CachedTraces != 0 {
		t.Fatalf("budget blown: %d traces, %d cached bytes over a 64-byte limit", st.CachedTraces, st.CachedBytes)
	}
	if st.SpilledTraces != 0 {
		t.Fatalf("store entry counted as %d spilled traces", st.SpilledTraces)
	}
	for _, ts := range e.TierStats() {
		if ts.Name == "spill" && ts.Entries != 0 {
			t.Fatalf("spill tier %+v lists a store entry", ts)
		}
	}
	if fps := e.TraceFingerprints(); len(fps) != 1 || fps[0] != "big" {
		t.Fatalf("TraceFingerprints = %v, want [big]", fps)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, orig) {
		t.Fatalf("store entry changed or removed by Close: %v", err)
	}
}

// TestStoreHitOverBudgetCorruptedBeforeReplay flips a bit in a store
// entry after the engine settled it in place and before it replays it:
// the replay-time frame check catches it, the workload is re-captured
// transparently, the sink sees exactly one full stream, and the
// re-capture's put heals the store for the next lookup.
func TestStoreHitOverBudgetCorruptedBeforeReplay(t *testing.T) {
	dir := t.TempDir()
	want, path := seedStore(t, dir, "big", emitN(5000, 32))
	e, capture, execs := overBudget(t, dir, emitN(5000, 32))
	defer e.Close()
	e.SetTraceDir(t.TempDir())
	if err := e.Warm("big", capture); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.StoreHits != 1 || execs.Load() != 0 {
		t.Fatalf("settle: %d hits, %d executions; want 1, 0", st.StoreHits, execs.Load())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var got trace.Recorder
	n, err := e.Replay("big", capture, &got)
	if err != nil || n != 5000 {
		t.Fatalf("replay of a corrupted entry: n=%d err=%v", n, err)
	}
	sameEvents(t, "recaptured stream", got.Events, want)
	if st := e.Stats(); execs.Load() != 1 || st.Recaptures != 1 || st.StorePuts != 1 {
		t.Fatalf("%d executions, %d recaptures, %d puts; want 1, 1, 1",
			execs.Load(), st.Recaptures, st.StorePuts)
	}

	h, hcapture, hexecs := overBudget(t, dir, emitN(5000, 32))
	defer h.Close()
	var healed trace.Recorder
	if _, err := h.Replay("big", hcapture, &healed); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.StoreHits != 1 || hexecs.Load() != 0 {
		t.Fatalf("store not healed: %d hits, %d executions", st.StoreHits, hexecs.Load())
	}
	sameEvents(t, "healed stream", healed.Events, want)
}

// TestStoreHitOverBudgetReadFault fails the replay-time opens of an
// entry settled in place — a replay opens it once, so the faults start
// at that open — for every run length: the replay either surfaces an
// error before any event reaches the sink or delivers the whole stream,
// never a part of it, and the store entry survives its invalidation. A
// run of faults the retry policy covers is retried and never fails the
// replay.
func TestStoreHitOverBudgetReadFault(t *testing.T) {
	dir := t.TempDir()
	want, path := seedStore(t, dir, "big", emitN(5000, 32))
	for _, count := range []int{1, 2, 4, 8, 1000} {
		label := fmt.Sprintf("count=%d", count)
		e, capture, _ := overBudget(t, dir, emitN(5000, 32))
		e.SetRetryPolicy(3, 0)
		if err := e.Warm("big", capture); err != nil {
			t.Fatal(err)
		}
		withFaults(t, fmt.Sprintf("%s:count=%d", faults.StoreRead, count))
		var got trace.Recorder
		n, err := e.Replay("big", capture, &got)
		faults.Activate(nil)
		if err != nil {
			if count <= 3 {
				t.Fatalf("%s: a fault run within the 3 retries failed the replay: %v", label, err)
			}
			if len(got.Events) != 0 || n != 0 {
				t.Fatalf("%s: error %v after %d events reached the sink", label, err, len(got.Events))
			}
			if !errors.Is(err, ErrSpillIO) {
				t.Fatalf("%s: error %v does not wrap ErrSpillIO", label, err)
			}
		} else {
			if n != 5000 {
				t.Fatalf("%s: n=%d", label, n)
			}
			sameEvents(t, label, got.Events, want)
		}
		_ = e.Close()
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: the engine removed the store entry: %v", label, err)
		}
	}
}

// cancelOnFirstBatch records events and cancels its context when the
// first batch arrives.
type cancelOnFirstBatch struct {
	rec    *trace.Recorder
	cancel context.CancelFunc
}

func (s cancelOnFirstBatch) Emit(ev trace.Event) { s.EmitBatch([]trace.Event{ev}) }
func (s cancelOnFirstBatch) EmitBatch(evs []trace.Event) {
	s.cancel()
	s.rec.EmitBatch(evs)
}

// TestStoreHitOverBudgetCancelMidStream cancels the context from inside
// the sink while an over-budget store hit replays in place from the
// bytes: the replay stops at the next batch and reports the
// cancellation, rather than feeding the rest of the stream.
func TestStoreHitOverBudgetCancelMidStream(t *testing.T) {
	dir := t.TempDir()
	const events = 4 * blockLen
	seedStore(t, dir, "big", emitN(events, 32))
	e, capture, execs := overBudget(t, dir, emitN(events, 32))
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rec trace.Recorder
	n, err := e.ReplayAllContext(ctx, "big", capture, []trace.Sink{cancelOnFirstBatch{rec: &rec, cancel: cancel}})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want one wrapping ErrCanceled", err)
	}
	if len(rec.Events) == 0 || len(rec.Events) >= events || uint64(len(rec.Events)) != n {
		t.Fatalf("sink received %d events (n=%d), want some but fewer than %d", len(rec.Events), n, events)
	}
	if st := e.Stats(); st.StoreHits != 1 || execs.Load() != 0 || st.DecodedEntries != 0 {
		t.Fatalf("%d store hits, %d executions, %d decoded entries; want an in-place replay from the bytes",
			st.StoreHits, execs.Load(), st.DecodedEntries)
	}
}

// TestStoreHitOverBudgetConcurrentPut renames a fresh copy over the
// store entry while the engine is replaying it in place: the replay
// holds the file it verified open, so the same events are delivered.
func TestStoreHitOverBudgetConcurrentPut(t *testing.T) {
	dir := t.TempDir()
	// Large enough that the entry spans many frames and the reader is
	// mid-file when the put lands.
	const events = 200000
	want, path := seedStore(t, dir, "big", emitN(events, 1<<20))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := orig[:len(orig)-16] // the trace in front of the seal trailer

	e, capture, execs := overBudget(t, dir, emitN(events, 1<<20))
	defer e.Close()
	st := e.Store()
	var got trace.Recorder
	var puts int
	sink := putOnFirstEmit{rec: &got, put: func() {
		puts++
		if err := st.Put("big", body); err != nil {
			t.Errorf("concurrent put: %v", err)
		}
	}}
	n, err := e.Replay("big", capture, sink)
	if err != nil || n != events {
		t.Fatalf("replay across a concurrent put: n=%d err=%v", n, err)
	}
	if puts != 1 {
		t.Fatalf("sink ran the put %d times, want 1", puts)
	}
	sameEvents(t, "replay across a put", got.Events, want)
	if execs.Load() != 0 || e.Stats().StoreHits != 1 {
		t.Fatalf("%d executions, %d store hits; want 0, 1", execs.Load(), e.Stats().StoreHits)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, orig) {
		t.Fatalf("entry after the put differs from the original: %v", err)
	}
}

// putOnFirstEmit records events and runs put once, when the first event
// arrives.
type putOnFirstEmit struct {
	rec *trace.Recorder
	put func()
}

func (s putOnFirstEmit) Emit(ev trace.Event) {
	if len(s.rec.Events) == 0 {
		s.put()
	}
	s.rec.Emit(ev)
}

// truncateOnFirstBatch records events and truncates a file when the
// first batch arrives.
type truncateOnFirstBatch struct {
	t    *testing.T
	rec  *trace.Recorder
	path string
}

func (s truncateOnFirstBatch) Emit(ev trace.Event) { s.EmitBatch([]trace.Event{ev}) }
func (s truncateOnFirstBatch) EmitBatch(evs []trace.Event) {
	if len(s.rec.Events) == 0 {
		if err := os.Truncate(s.path, 0); err != nil {
			s.t.Error(err)
		}
	}
	s.rec.EmitBatch(evs)
}

// TestStoreHitTruncatedMidReplay truncates a store hit's entry file from
// inside the sink while the entry is replayed from its mapping: the next
// read past the new end faults, and the fault comes back as an error
// wrapping ErrSpillIO instead of killing the process. The entry is
// invalidated, and the next Replay re-captures exactly once and heals
// the store.
func TestStoreHitTruncatedMidReplay(t *testing.T) {
	dir := t.TempDir()
	const events = 200000 // many frames, so most of the file is unread at the first batch
	want, path := seedStore(t, dir, "big", emitN(events, 1<<20))
	e := New(1)
	defer e.Close()
	e.SetStore(openStore(t, dir))
	var execs atomic.Int64
	capture := countingCapture(&execs, events, 1<<20)

	var rec trace.Recorder
	n, err := e.Replay("big", capture, truncateOnFirstBatch{t: t, rec: &rec, path: path})
	if !errors.Is(err, ErrSpillIO) {
		t.Fatalf("replay over a truncated mapping: n=%d err=%v, want ErrSpillIO", n, err)
	}
	if n == 0 || n >= events || uint64(len(rec.Events)) != n {
		t.Fatalf("sink received %d events (n=%d), want some but fewer than %d", len(rec.Events), n, events)
	}
	if st := e.Stats(); st.StoreHits != 1 || st.Recaptures != 1 || execs.Load() != 0 {
		t.Fatalf("%d store hits, %d recaptures, %d executions; want 1, 1, 0", st.StoreHits, st.Recaptures, execs.Load())
	}

	var again trace.Recorder
	if n, err := e.Replay("big", capture, &again); err != nil || n != events {
		t.Fatalf("replay after the truncation: n=%d err=%v", n, err)
	}
	sameEvents(t, "re-captured stream", again.Events, want)
	if st := e.Stats(); execs.Load() != 1 || st.Captures != 1 || st.StorePuts != 1 {
		t.Fatalf("%d executions, %d captures, %d puts; want 1, 1, 1", execs.Load(), st.Captures, st.StorePuts)
	}
	if _, n, err := e.Store().Get("big"); err != nil || n != events {
		t.Fatalf("store not healed: %d events, %v", n, err)
	}
}

// TestStoreReadFiresOnEveryMapping counts the mapping opens of a store
// hit's replays with the store.read injection point: the lookup only
// stats the entry; the first replay maps it once, verifying it in the
// mapping it replays from; the second once, to verify it and decode its
// blocks; the third not at all. A fault armed past the expected count
// never fires, and one armed at the last expected open fires once and
// is retried.
func TestStoreReadFiresOnEveryMapping(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, "k", emitN(3*blockLen, 64))
	perReplay := []int64{1, 1, 0}
	for round, opens := range perReplay {
		for _, after := range []int64{opens, opens - 1} {
			if after < 0 {
				continue
			}
			e := New(1)
			e.SetStore(openStore(t, dir))
			e.SetRetryPolicy(1, 0)
			if err := e.Warm("k", emitN(3*blockLen, 64)); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < round; r++ {
				if _, err := e.Replay("k", emitN(3*blockLen, 64), &trace.Counter{}); err != nil {
					t.Fatal(err)
				}
			}
			plan := withFaults(t, fmt.Sprintf("%s:after=%d:count=1", faults.StoreRead, after))
			n, err := e.Replay("k", emitN(3*blockLen, 64), &trace.Counter{})
			faults.Activate(nil)
			if err != nil || n != 3*blockLen {
				t.Fatalf("replay %d with store.read armed after %d opens: n=%d err=%v", round+1, after, n, err)
			}
			wantFired := int64(0)
			if after < opens {
				wantFired = 1
			}
			if plan.Fired() != wantFired {
				t.Fatalf("replay %d: store.read armed after %d of %d expected opens fired %d times, want %d",
					round+1, after, opens, plan.Fired(), wantFired)
			}
			if st := e.Stats(); st.Captures != 0 || st.Recaptures != 0 {
				t.Fatalf("replay %d: %d captures, %d recaptures; want none", round+1, st.Captures, st.Recaptures)
			}
			_ = e.Close()
		}
	}
}

// TestStoreHammer drives several engines' worth of goroutines over
// overlapping keys against one shared store while store I/O faults fire,
// asserting the singleflight contract holds end to end: at most one
// execution per (engine, key), every caller sees the full event count,
// and nothing deadlocks.
func TestStoreHammer(t *testing.T) {
	dir := t.TempDir()
	const (
		engines    = 3
		goroutines = 8
		keys       = 12
		events     = 300
	)

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
		execs := make([]atomic.Int64, keys)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					key := (g + k) % keys // overlapping, shifted key order
					capture := func(s trace.Sink) {
						execs[key].Add(1)
						emitN(events, 16)(s)
					}
					var cnt trace.Counter
					n, err := e.Replay(fmt.Sprintf("k%d", key), capture, &cnt)
					if err != nil {
						t.Errorf("engine %d key %d: %v", ei, key, err)
						return
					}
					if n != events || cnt.Total() != events {
						t.Errorf("engine %d key %d: %d events replayed, sink saw %d",
							ei, key, n, cnt.Total())
					}
				}
			}(g)
		}
		wg.Wait()
		for k := range execs {
			if got := execs[k].Load(); got > 1 {
				t.Fatalf("engine %d key %d executed %d times, want at most 1", ei, k, got)
			}
		}
	}

	// Whatever the fault pattern did, surviving entries must all verify.
	faults.Activate(nil)
	st := openStore(t, dir)
	for k := 0; k < keys; k++ {
		if _, n, err := st.Get(fmt.Sprintf("k%d", k)); err == nil && n != events {
			t.Fatalf("key %d stored with %d events, want %d", k, n, events)
		}
	}
}
