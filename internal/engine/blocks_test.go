package engine

import (
	"encoding/binary"
	"fmt"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/faults"
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

// emitPhased emits blockLen events per operation class in runs, so
// consecutive decoded blocks carry different single-op masks and the
// skip path actually skips.
func emitPhased() CaptureFunc {
	ops := []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt}
	return func(s trace.Sink) {
		for _, op := range ops {
			for i := 0; i < blockLen; i++ {
				s.Emit(trace.Event{Op: op, A: uint64(i) % 97, B: uint64(i) % 31})
			}
		}
	}
}

// maskedRec is a comparable masked recording sink: the mask drives the
// per-batch skip.
type maskedRec struct {
	rec  *trace.Recorder
	mask trace.OpMask
}

func (m maskedRec) Emit(ev trace.Event)  { m.rec.Emit(ev) }
func (m maskedRec) OpMask() trace.OpMask { return m.mask }

func sameEvents(t *testing.T, label string, got, want []trace.Event) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// replayRecorded runs one fused replay of capture on e with one masked
// recording sink per mask and returns each sink's recorded stream.
func replayRecorded(t *testing.T, e *Engine, key string, capture CaptureFunc, masks []trace.OpMask) (uint64, [][]trace.Event) {
	t.Helper()
	sinks := make([]trace.Sink, len(masks))
	recs := make([]*trace.Recorder, len(masks))
	for i, m := range masks {
		recs[i] = &trace.Recorder{}
		sinks[i] = maskedRec{rec: recs[i], mask: m}
	}
	n, err := e.ReplayAll(key, capture, sinks)
	if err != nil {
		t.Fatalf("ReplayAll(%q, %d sinks): %v", key, len(masks), err)
	}
	out := make([][]trace.Event, len(recs))
	for i, r := range recs {
		out[i] = r.Events
	}
	return n, out
}

// delivered sums the lengths of recorded streams.
func delivered(streams [][]trace.Event) uint64 {
	var n uint64
	for _, s := range streams {
		n += uint64(len(s))
	}
	return n
}

// encodeV1 renders a capture as a version-1 trace stream: the "MTRC"
// magic and version byte 1, then {op byte, a uvarint, b uvarint} per
// event. Only v1 reading is kept, so the test writes v1 by hand.
func encodeV1(capture CaptureFunc) ([]byte, uint64) {
	buf := []byte("MTRC\x01")
	var n uint64
	capture(trace.SinkFunc(func(ev trace.Event) {
		buf = append(buf, byte(ev.Op))
		buf = binary.AppendUvarint(buf, ev.A)
		buf = binary.AppendUvarint(buf, ev.B)
		n++
	}))
	return buf, n
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

	// At every sink count, with masks cycling through every OpMask, each
	// sink of one fused replay observes what its own Replay delivers,
	// and the delivery counter tallies exactly what the sinks received.
	t.Run("sink counts", func(t *testing.T) {
		capture := emitMixed(3 * blockLen)
		for _, sinkCount := range []int{1, 2, 8, 32} {
			masks := make([]trace.OpMask, sinkCount)
			for i := range masks {
				masks[i] = trace.OpMask(i % (int(trace.MaskAll) + 1))
			}
			e := New(8)
			_, got := replayRecorded(t, e, "diff", capture, masks)
			for i, m := range masks {
				_, want := replayRecorded(t, New(1), "diff", capture, []trace.OpMask{m})
				sameEvents(t, fmt.Sprintf("%d sinks, sink %d (mask %04b)", sinkCount, i, m), got[i], want[0])
			}
			if d := e.Stats().DeliveredEvents; d != delivered(got) {
				t.Fatalf("%d sinks: %d delivered events counted, sinks received %d", sinkCount, d, delivered(got))
			}
		}
	})

	// A sink subscribed twice is owed both deliveries, in order: each
	// block reaches it twice before the next block starts.
	t.Run("duplicate sink", func(t *testing.T) {
		capture := emitMixed(2 * blockLen)
		var want trace.Recorder
		capture(&want)
		rec := &trace.Recorder{}
		dup := maskedRec{rec: rec, mask: trace.MaskAll}
		other := maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll}
		if _, err := New(8).ReplayAll("dup", capture, []trace.Sink{dup, other, dup}); err != nil {
			t.Fatalf("ReplayAll: %v", err)
		}
		var twice []trace.Event
		for b := 0; b < 2; b++ {
			block := want.Events[b*blockLen : (b+1)*blockLen]
			twice = append(append(twice, block...), block...)
		}
		sameEvents(t, "duplicate-subscription sink", rec.Events, twice)
	})

	// The same stream settled as v1, plain v2 and compressed v2 replays
	// identically to every sink: from the bytes on its first replay, and
	// on its second from decoded blocks or, under a budget that holds
	// the encoded bytes but not the blocks, from the bytes again.
	t.Run("formats", func(t *testing.T) {
		capture := emitMixed(2*blockLen + 137) // a ragged tail block
		var want trace.Recorder
		capture(&want)
		v1, n1 := encodeV1(capture)
		v2, n2 := encodeStream(t, capture, false)
		v2c, n2c := encodeStream(t, capture, true)
		encodings := []struct {
			name   string
			data   []byte
			events uint64
		}{{"v1", v1, n1}, {"v2", v2, n2}, {"v2-compressed", v2c, n2c}}

		noCapture := func(trace.Sink) { t.Error("settled trace re-executed its workload") }
		masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskOf(isa.OpFMul),
			trace.MaskAll, trace.MaskOf(isa.OpIMul, isa.OpFDiv), trace.MaskAll, trace.MaskAll, trace.MaskAll}
		for _, enc := range encodings {
			for _, blocks := range []bool{true, false} {
				e := New(8)
				if !blocks {
					e.SetCacheLimit(int64(len(enc.data)))
				}
				settleBytes(t, e, "fmt", enc.data, enc.events)
				for round := 1; round <= 2; round++ {
					n, got := replayRecorded(t, e, "fmt", noCapture, masks)
					if n != enc.events {
						t.Fatalf("%s round %d: replayed %d events, want %d", enc.name, round, n, enc.events)
					}
					if decoded := e.Stats().DecodedEntries == 1; decoded != (blocks && round == 2) {
						t.Fatalf("%s round %d: decoded entries %d, want blocks=%v",
							enc.name, round, e.Stats().DecodedEntries, blocks && round == 2)
					}
					for i := range got {
						sameEvents(t, fmt.Sprintf("%s round %d (blocks=%v) sink %d", enc.name, round, blocks, i),
							got[i], want.Events)
					}
				}
			}
		}
	})
}

// settleBytes installs encoded bytes as key's memory-tier entry through
// the engine's one settle function, reserving them first as a store hit
// or a capture arm does.
func settleBytes(t *testing.T, e *Engine, key string, data []byte, events uint64) {
	t.Helper()
	if !e.budget.Reserve(int64(len(data))) {
		t.Fatalf("budget refused %d bytes", len(data))
	}
	e.mu.Lock()
	ent := e.entryLocked(key)
	ent.state = stateInflight
	e.mu.Unlock()
	e.settle(ent, e.budget, entrySnapshot{state: stateMemory, data: [][]byte{data}, events: events}, false)
}

// TestDecodedBlocksSharedAcrossReplays checks the decode-once property
// and when it starts: the first replay decodes from the bytes and builds
// nothing, the second builds blocks, later replays hit them, and the
// budget accounting covers them.
func TestDecodedBlocksSharedAcrossReplays(t *testing.T) {
	e := New(1)
	const events = 20000
	capture := emitMixed(events)

	var recs [3]trace.Recorder
	for i, want := range []struct {
		entries int
		hits    uint64
	}{{0, 0}, {1, 0}, {1, 1}} {
		if _, err := e.Replay("k", capture, &recs[i]); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.DecodedEntries != want.entries || st.DecodeOnceHits != want.hits {
			t.Fatalf("after replay %d: %d decoded entries, %d decode-once hits; want %d and %d",
				i+1, st.DecodedEntries, st.DecodeOnceHits, want.entries, want.hits)
		}
		if got, want := st.DecodedBlockBytes, int64(want.entries)*events*bytesPerEvent; got != want {
			t.Fatalf("after replay %d: decoded block bytes %d, want %d", i+1, got, want)
		}
	}
	if !reflect.DeepEqual(recs[0].Events, recs[1].Events) || !reflect.DeepEqual(recs[0].Events, recs[2].Events) {
		t.Fatal("block-built and block-served replays diverged from the decoding replay")
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

	// An overflow entry corrupted mid-file is caught by the frame check before
	// any event is delivered and re-captured transparently: every sink
	// sees exactly one full stream.
	t.Run("spill corruption", func(t *testing.T) {
		e := New(8)
		e.SetCacheLimit(1)
		e.SetTraceDir(t.TempDir())
		defer e.Close()
		var execs atomic.Int64
		capture := countingCapture(&execs, 30000, 128)
		masks := make([]trace.OpMask, 8)
		for i := range masks {
			masks[i] = trace.MaskAll
		}
		_, want := replayRecorded(t, e, "big", capture, masks)
		path := spillPathOf(t, e, "big")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		before := e.Stats().DeliveredEvents
		n, got := replayRecorded(t, e, "big", capture, masks)
		if n != 30000 {
			t.Fatalf("replay over corrupt spill: n=%d", n)
		}
		if execs.Load() != 2 || e.Stats().Recaptures != 1 {
			t.Fatalf("execs=%d recaptures=%d, want 2 and 1", execs.Load(), e.Stats().Recaptures)
		}
		for i := range got {
			sameEvents(t, fmt.Sprintf("post-corruption sink %d", i), got[i], want[i])
		}
		if d := e.Stats().DeliveredEvents - before; d != 8*30000 {
			t.Fatalf("replay over corrupt spill delivered %d per-sink events, want %d", d, 8*30000)
		}
	})
}

// TestBlocksDecodedFromSpillFile checks the tier covers the disk tier:
// an overflowed capture's store entry gets its blocks decoded from the
// file once, after which replays never reopen it — even if the file
// disappears.
func TestBlocksDecodedFromSpillFile(t *testing.T) {
	e := New(1)
	e.SetCacheLimit(1) // capture must spill
	e.SetTraceDir(t.TempDir())
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

	// Remove the overflow entry out from under the engine: block-served
	// replays must not notice.
	if err := os.Remove(spillPathOf(t, e, "k")); err != nil {
		t.Fatal(err)
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

	// One sink per OpMask over a trace whose blocks each carry a single
	// class: the empty mask sees nothing, a single-class mask sees
	// exactly its block, MaskAll sees the whole stream, and every
	// (sink, block) pair whose masks miss is counted as a skip.
	t.Run("every mask combination", func(t *testing.T) {
		const combos = 16 // every subset of the four classes emitPhased uses
		masks := make([]trace.OpMask, combos+1)
		for i := 0; i < combos; i++ {
			masks[i] = trace.OpMask(i)
		}
		masks[combos] = trace.MaskAll
		e := New(8)
		_, got := replayRecorded(t, e, "masks", emitPhased(), masks)
		if len(got[0]) != 0 {
			t.Fatalf("empty-mask sink received %d events", len(got[0]))
		}
		for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
			only := got[trace.MaskOf(op)]
			if len(only) != blockLen {
				t.Fatalf("mask-of-%v sink got %d events, want %d", op, len(only), blockLen)
			}
			for _, ev := range only {
				if ev.Op != op {
					t.Fatalf("mask-of-%v sink received a %v event", op, ev.Op)
				}
			}
		}
		if len(got[combos]) != 4*blockLen {
			t.Fatalf("MaskAll sink got %d events, want %d", len(got[combos]), 4*blockLen)
		}
		// Each single-class block misses the 8 subsets without its class.
		if st := e.Stats(); st.MaskSkips != 4*8 || st.DeliveredEvents != delivered(got) {
			t.Fatalf("mask skips %d, delivered %d; want %d and %d", st.MaskSkips, st.DeliveredEvents, 4*8, delivered(got))
		}
	})
}

// TestConcurrentFusedReplaysShareOneEntry is the -race hammer: many
// goroutines fuse-replay the same key concurrently, all sharing (or
// racing to build) one decoded-block entry, while a reader loops over
// the stats. Every sink of every replay must observe the identical
// stream, and the delivery counter must balance whether a replay walked
// the blocks or, finding another goroutine mid-decode, the bytes.
func TestConcurrentFusedReplaysShareOneEntry(t *testing.T) {
	e := New(8)
	const events = 15000
	const goroutines = 12
	capture := emitMixed(events)

	var want trace.Recorder
	if _, err := New(1).Replay("k", capture, &want); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats()
			_ = st.Replays + st.ReplayedEvents + st.DecodeOnceHits + st.DeliveredEvents + st.MaskSkips
		}
	}()
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
	close(stop)
	<-readerDone
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
	if st := e.Stats(); st.DeliveredEvents != 2*st.ReplayedEvents || st.ReplayedEvents != goroutines*events {
		t.Fatalf("delivered %d per-sink events over %d replayed; want %d and %d",
			st.DeliveredEvents, st.ReplayedEvents, 2*goroutines*events, goroutines*events)
	}
}

// TestFanoutStatsHammer is the -race audit of the counters a fused
// replay touches: concurrent replays over several keys, each fed to six
// sinks, race a reader looping over every stats accessor. The name
// predates the serial delivery loop; the counters it audits remain.
func TestFanoutStatsHammer(t *testing.T) {
	e := New(8)
	keys := []string{"h0", "h1", "h2", "h3"}
	capture := emitMixed(2 * blockLen)
	newSinks := func() ([]trace.Sink, []*trace.Counter) {
		sinks := make([]trace.Sink, 6)
		counters := make([]*trace.Counter, len(sinks))
		for i := range sinks {
			counters[i] = &trace.Counter{}
			sinks[i] = counters[i]
		}
		return sinks, counters
	}
	for _, k := range keys {
		if err := e.Warm(k, capture); err != nil {
			t.Fatal(err)
		}
		sinks, _ := newSinks()
		if _, err := e.ReplayAll(k, capture, sinks); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats().Captures + e.Stats().Replays + e.Stats().Recaptures + e.Stats().ReplayedEvents +
				e.Stats().DecodeOnceHits + e.Stats().FanoutReplays + e.Stats().RingStalls +
				e.Stats().DeliveredEvents + e.Stats().MaskSkips + e.Stats().SpillRetries +
				e.Stats().DegradedCaptures + e.Stats().StoreHits + e.Stats().StorePuts
			_ = e.Stats().CachedBytes + e.Stats().DecodedBlockBytes + int64(e.Stats().CachedTraces) +
				int64(e.Stats().DecodedEntries) + int64(e.Workers())
			_ = e.TierStats()
		}
	}()
	const workers, iters = 4, 8
	var wg sync.WaitGroup
	var events uint64
	var eventsMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				key := keys[(w+iter)%len(keys)]
				sinks, counters := newSinks()
				n, err := e.ReplayAll(key, capture, sinks)
				if err != nil {
					t.Errorf("worker %d: ReplayAll(%q): %v", w, key, err)
					return
				}
				for i, c := range counters {
					if c.Total() != n {
						t.Errorf("worker %d: sink %d saw %d of %d events", w, i, c.Total(), n)
					}
				}
				eventsMu.Lock()
				events += n
				eventsMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	st := e.Stats()
	if st.Captures != uint64(len(keys)) {
		t.Fatalf("captures = %d, want %d", st.Captures, len(keys))
	}
	// Every event of every replay, warm-up included, is counted once.
	if warm := uint64(len(keys)) * 2 * blockLen; st.ReplayedEvents != warm+events {
		t.Fatalf("replayed %d events, want %d", st.ReplayedEvents, warm+events)
	}
	// Per-sink accounting must balance: six sinks saw every event of
	// every replay.
	if want := st.ReplayedEvents * 6; st.DeliveredEvents != want {
		t.Fatalf("delivered %d per-sink events, want %d", st.DeliveredEvents, want)
	}
}

// TestBlockBuildPanicReleasesItsClaim: an injected panic in a store
// hit's block build, which runs inside the read of its mapped entry,
// unwinds the replay and leaves neither a budget reservation nor the
// build claim behind, so the next replay builds the blocks.
func TestBlockBuildPanicReleasesItsClaim(t *testing.T) {
	dir := t.TempDir()
	const events = 3 * blockLen
	seedStore(t, dir, "k", emitN(events, 64))
	e := New(1)
	defer e.Close()
	e.SetStore(openStore(t, dir))
	replay := func() (uint64, error) { return e.Replay("k", emitN(events, 64), &trace.Counter{}) }
	if _, err := replay(); err != nil {
		t.Fatal(err)
	}
	withFaults(t, faults.BlockDecode+":count=1:panic")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the injected block.decode panic did not unwind the replay")
			}
		}()
		_, _ = replay()
	}()
	if st := e.Stats(); st.BudgetReserved != 0 || st.DecodedEntries != 0 {
		t.Fatalf("after the panic: %d bytes reserved, %d decoded entries; want 0, 0", st.BudgetReserved, st.DecodedEntries)
	}
	if n, err := replay(); err != nil || n != events {
		t.Fatalf("replay after the panic: n=%d err=%v", n, err)
	}
	if st := e.Stats(); st.DecodedEntries != 1 || st.Captures != 0 {
		t.Fatalf("%d decoded entries, %d captures; want the blocks built from the store entry", st.DecodedEntries, st.Captures)
	}
}
