package engine

import (
	"os"
	"reflect"
	"sync"
	"testing"

	"memotable/internal/isa"
	"memotable/internal/trace"
)

// emitMixed is a synthetic workload spanning several op classes, so class
// masks and multi-class sinks are exercised.
func emitMixed(n int) CaptureFunc {
	return func(s trace.Sink) {
		for i := 0; i < n; i++ {
			op := isa.OpFMul
			switch i % 4 {
			case 1:
				op = isa.OpFDiv
			case 2:
				op = isa.OpLoad
			case 3:
				op = isa.OpIAlu
			}
			s.Emit(trace.Event{Op: op, A: uint64(i % 97), B: uint64(i % 31)})
		}
	}
}

// TestReplayAllMatchesSerialReplays pins the fused path to the reference:
// M sinks fed by one ReplayAll must each observe exactly the stream M
// separate Replay calls would deliver them.
func TestReplayAllMatchesSerialReplays(t *testing.T) {
	const events = 30000
	capture := emitMixed(events)

	serial := New(1)
	var want [3]trace.Recorder
	for i := range want {
		if _, err := serial.Replay("k", capture, &want[i]); err != nil {
			t.Fatal(err)
		}
	}

	fused := New(1)
	var got [3]trace.Recorder
	n, err := fused.ReplayAll("k", capture, []trace.Sink{&got[0], &got[1], &got[2]})
	if err != nil {
		t.Fatal(err)
	}
	if n != events {
		t.Fatalf("fused replay delivered %d events, want %d", n, events)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Events, want[i].Events) {
			t.Fatalf("sink %d: fused stream diverged from serial replay", i)
		}
	}
	if fused.Stats().Captures != 1 || fused.Stats().Replays != 1 {
		t.Fatalf("captures=%d replays=%d, want 1 and 1", fused.Stats().Captures, fused.Stats().Replays)
	}
	if fused.Stats().ReplayedEvents != events {
		t.Fatalf("replayed events %d, want %d", fused.Stats().ReplayedEvents, events)
	}
}

// TestDecodedBlocksSharedAcrossReplays checks the decode-once property:
// the first replay builds blocks, later replays hit them, and the budget
// accounting covers them.
func TestDecodedBlocksSharedAcrossReplays(t *testing.T) {
	e := New(1)
	const events = 20000
	capture := emitMixed(events)

	var r1 trace.Recorder
	if _, err := e.Replay("k", capture, &r1); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodedEntries != 1 {
		t.Fatalf("decoded entries %d after first replay, want 1", e.Stats().DecodedEntries)
	}
	if got, want := e.Stats().DecodedBlockBytes, int64(events)*bytesPerEvent; got != want {
		t.Fatalf("decoded block bytes %d, want %d", got, want)
	}
	if e.Stats().DecodeOnceHits != 0 {
		t.Fatalf("first replay counted as a decode-once hit")
	}

	var r2 trace.Recorder
	if _, err := e.Replay("k", capture, &r2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodeOnceHits != 1 {
		t.Fatalf("decode-once hits %d after second replay, want 1", e.Stats().DecodeOnceHits)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatal("block-served replay diverged from decoding replay")
	}
}

// TestBlockTierRespectsBudget starves the budget so blocks cannot be
// cached: replays must fall back to byte decoding and stay correct.
func TestBlockTierRespectsBudget(t *testing.T) {
	e := New(1)
	e.SetCacheLimit(1)
	e.SetTraceDir(t.TempDir())
	defer e.Close()
	const events = 20000
	capture := emitMixed(events)

	var r1, r2 trace.Recorder
	if _, err := e.Replay("k", capture, &r1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Replay("k", capture, &r2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().SpilledTraces != 1 {
		t.Fatalf("spilled=%d, want 1", e.Stats().SpilledTraces)
	}
	if e.Stats().DecodedEntries != 0 || e.Stats().DecodedBlockBytes != 0 {
		t.Fatalf("block tier held entries despite a 1-byte budget: %d entries, %d bytes",
			e.Stats().DecodedEntries, e.Stats().DecodedBlockBytes)
	}
	if !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatal("byte-path replays diverged")
	}
}

// TestBlocksDecodedFromSpillFile checks the tier is spill-aware: an entry
// whose bytes live on disk gets its blocks decoded from the file once,
// after which replays never reopen it — even if the file disappears.
func TestBlocksDecodedFromSpillFile(t *testing.T) {
	e := New(1)
	e.SetCacheLimit(1) // capture must spill
	dir := t.TempDir()
	e.SetTraceDir(dir)
	defer e.Close()
	const events = 20000
	capture := emitMixed(events)

	var r1 trace.Recorder
	if _, err := e.Replay("k", capture, &r1); err != nil {
		t.Fatal(err)
	}
	if e.Stats().SpilledTraces != 1 {
		t.Fatalf("spilled=%d, want 1", e.Stats().SpilledTraces)
	}

	// Now give the block tier room: the next replay decodes the spill
	// file into blocks.
	e.SetCacheLimit(DefaultCacheBytes)
	var r2 trace.Recorder
	if _, err := e.Replay("k", capture, &r2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodedEntries != 1 {
		t.Fatalf("decoded entries %d, want 1 (spill decode)", e.Stats().DecodedEntries)
	}

	// Remove the spill file out from under the engine: block-served
	// replays must not notice.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		os.Remove(dir + "/" + de.Name())
	}
	var r3 trace.Recorder
	if _, err := e.Replay("k", capture, &r3); err != nil {
		t.Fatalf("block-served replay reopened the removed spill file: %v", err)
	}
	if !reflect.DeepEqual(r1.Events, r3.Events) || !reflect.DeepEqual(r1.Events, r2.Events) {
		t.Fatal("spill-decoded blocks diverged from the original stream")
	}
	if e.Stats().Captures != 1 {
		t.Fatalf("captures=%d, want 1 (no re-execution)", e.Stats().Captures)
	}
}

// TestSetBlockCacheDisablesAndReleases checks the ablation toggle: off
// releases held blocks and stops caching; on resumes.
func TestSetBlockCacheDisablesAndReleases(t *testing.T) {
	e := New(1)
	const events = 10000
	capture := emitMixed(events)
	var r trace.Recorder
	if _, err := e.Replay("k", capture, &r); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodedEntries != 1 {
		t.Fatalf("decoded entries %d, want 1", e.Stats().DecodedEntries)
	}
	e.SetBlockCache(false)
	if e.Stats().DecodedEntries != 0 || e.Stats().DecodedBlockBytes != 0 {
		t.Fatal("disabling the block cache did not release blocks")
	}
	var r2 trace.Recorder
	if _, err := e.Replay("k", capture, &r2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodedEntries != 0 {
		t.Fatal("disabled block cache decoded blocks anyway")
	}
	e.SetBlockCache(true)
	if _, err := e.Replay("k", capture, &r2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().DecodedEntries != 1 {
		t.Fatal("re-enabled block cache did not decode blocks")
	}
}

// maskedSink fails the test if it receives any event; ReplayAll must skip
// it entirely because its advertised mask matches no class in the trace.
type maskedSink struct {
	t *testing.T
}

func (m *maskedSink) Emit(trace.Event) { m.t.Error("masked-out sink received an event") }
func (m *maskedSink) OpMask() trace.OpMask {
	return trace.MaskOf(isa.OpFSqrt) // absent from emitMixed's stream
}

// TestOpMaskSkipsWholeBlocks checks the fused loop short-circuits sinks
// whose class mask intersects none of a block's events.
func TestOpMaskSkipsWholeBlocks(t *testing.T) {
	e := New(1)
	const events = 20000
	capture := emitMixed(events)
	var rec trace.Recorder
	skip := &maskedSink{t: t}
	// Warm the blocks first, then fuse: both sinks ride the block path.
	if _, err := e.Replay("k", capture, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Events = nil
	n, err := e.ReplayAll("k", capture, []trace.Sink{&rec, skip})
	if err != nil {
		t.Fatal(err)
	}
	if n != events || len(rec.Events) != events {
		t.Fatalf("unmasked sink got %d of %d events", len(rec.Events), events)
	}
}

// TestConcurrentFusedReplaysShareOneEntry is the -race hammer: many
// goroutines fuse-replay the same key concurrently, all sharing (or
// racing to build) one decoded-block entry. Every sink of every replay
// must observe the identical stream.
func TestConcurrentFusedReplaysShareOneEntry(t *testing.T) {
	e := New(8)
	const events = 15000
	const goroutines = 12
	capture := emitMixed(events)

	var want trace.Recorder
	if _, err := New(1).Replay("k", capture, &want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	streams := make([][2]trace.Recorder, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = e.ReplayAll("k", capture,
				[]trace.Sink{&streams[g][0], &streams[g][1]})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for s := 0; s < 2; s++ {
			if !reflect.DeepEqual(streams[g][s].Events, want.Events) {
				t.Fatalf("goroutine %d sink %d diverged from serial stream", g, s)
			}
		}
	}
	if e.Stats().Captures != 1 {
		t.Fatalf("captures=%d, want 1", e.Stats().Captures)
	}
	if e.Stats().DecodedEntries != 1 {
		t.Fatalf("decoded entries %d, want 1", e.Stats().DecodedEntries)
	}
}
