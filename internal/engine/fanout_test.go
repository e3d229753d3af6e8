package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/faults"
	"memotable/internal/isa"
	"memotable/internal/trace"
)

// The fan-out pipeline's one promise is byte-identity: every sink must
// observe the exact event sequence the serial loop would deliver it, at
// any sink count, under any mask, from any trace format, and across
// failure and recovery. These tests run a serial reference engine and a
// fan-out engine over identical inputs and demand identical outcomes.

// maskedRec is a comparable masked recording sink: distinct values fan
// out to distinct consumers, the mask drives the per-block skip.
type maskedRec struct {
	rec  *trace.Recorder
	mask trace.OpMask
}

func (m maskedRec) Emit(ev trace.Event)  { m.rec.Emit(ev) }
func (m maskedRec) OpMask() trace.OpMask { return m.mask }

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

// replayRecorded runs one fused replay of capture on e with the given
// per-sink masks and returns each sink's recorded stream.
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

// TestFanoutMatchesSerialAcrossSinkCounts is the core differential: the
// same workload fused across 1, 2, 8 and 32 sinks (masks cycling every
// OpMask combination) must produce per-sink streams identical to the
// serial reference engine's, and the fan-out must actually have run
// wherever it can.
func TestFanoutMatchesSerialAcrossSinkCounts(t *testing.T) {
	capture := emitMixed(3 * blockLen)
	for _, sinkCount := range []int{1, 2, 8, 32} {
		masks := make([]trace.OpMask, sinkCount)
		for i := range masks {
			masks[i] = trace.OpMask(i % (int(trace.MaskAll) + 1))
			if sinkCount < 8 {
				masks[i] = trace.MaskAll // tiny fan-outs: everyone sees everything
			}
		}
		serial := Serial()
		fan := New(8)
		sn, sout := replayRecorded(t, serial, "diff", capture, masks)
		fn, fout := replayRecorded(t, fan, "diff", capture, masks)
		if sn != fn {
			t.Fatalf("%d sinks: event counts diverged: serial %d, fan-out %d", sinkCount, sn, fn)
		}
		for i := range sout {
			sameEvents(t, fmt.Sprintf("%d sinks, sink %d (mask %04b)", sinkCount, i, masks[i]),
				fout[i], sout[i])
		}
		if sinkCount >= 2 && fan.Stats().FanoutReplays == 0 {
			t.Fatalf("%d sinks: fan-out engine delivered serially", sinkCount)
		}
		if fan.Stats().DeliveredEvents != serial.Stats().DeliveredEvents {
			t.Fatalf("%d sinks: delivered-event totals diverged: serial %d, fan-out %d",
				sinkCount, serial.Stats().DeliveredEvents, fan.Stats().DeliveredEvents)
		}
	}
}

// TestFanoutEveryMaskCombination drives one sink per possible OpMask
// over a phase-structured trace whose blocks carry single-op masks, so
// the per-block skip decision differs per sink, and pins both the
// serial/fan-out identity and the filtering semantics themselves.
func TestFanoutEveryMaskCombination(t *testing.T) {
	// Every subset of the four memoizable classes (the trace's whole
	// op population), plus the catch-all mask: ops 0..3 are mask bits
	// 0..3, so combo i is simply OpMask(i).
	capture := emitPhased()
	const combos = 16
	masks := make([]trace.OpMask, combos+1)
	for i := 0; i < combos; i++ {
		masks[i] = trace.OpMask(i)
	}
	masks[combos] = trace.MaskAll
	serial := Serial()
	fan := New(8)
	_, sout := replayRecorded(t, serial, "masks", capture, masks)
	_, fout := replayRecorded(t, fan, "masks", capture, masks)
	for i := range masks {
		sameEvents(t, fmt.Sprintf("mask %04b", masks[i]), fout[i], sout[i])
	}
	// Filtering semantics: the empty mask sees nothing; a single-op mask
	// sees exactly its phase's blocks; MaskAll sees the whole stream.
	if len(sout[0]) != 0 {
		t.Fatalf("empty-mask sink received %d events", len(sout[0]))
	}
	for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv, isa.OpFSqrt} {
		only := sout[trace.MaskOf(op)]
		if len(only) != blockLen {
			t.Fatalf("mask-of-%v sink got %d events, want %d", op, len(only), blockLen)
		}
		for _, ev := range only {
			if ev.Op != op {
				t.Fatalf("mask-of-%v sink received a %v event", op, ev.Op)
			}
		}
	}
	if len(sout[combos]) != 4*blockLen {
		t.Fatalf("MaskAll sink got %d events, want %d", len(sout[combos]), 4*blockLen)
	}
	if fan.Stats().MaskSkips != serial.Stats().MaskSkips {
		t.Fatalf("mask-skip counts diverged: serial %d, fan-out %d",
			serial.Stats().MaskSkips, fan.Stats().MaskSkips)
	}
}

// encodeV1 renders a capture as a version-1 trace stream.
func encodeV1(t *testing.T, capture CaptureFunc) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	capture(tw)
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tw.Count()
}

// TestFanoutFormats adopts the same event stream encoded as v1, plain
// v2, and compressed v2, and requires the fan-out replay of each to
// match both the serial replay and the original stream.
func TestFanoutFormats(t *testing.T) {
	capture := emitMixed(2*blockLen + 137) // a ragged tail block
	want := &trace.Recorder{}
	capture(want)

	type encoding struct {
		name   string
		data   []byte
		events uint64
	}
	v1, n1 := encodeV1(t, capture)
	v2, n2 := encodeStream(t, capture, false)
	v2c, n2c := encodeStream(t, capture, true)
	encodings := []encoding{{"v1", v1, n1}, {"v2", v2, n2}, {"v2-compressed", v2c, n2c}}

	noCapture := func(trace.Sink) { t.Error("adopted trace re-executed its workload") }
	masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskOf(isa.OpFMul),
		trace.MaskAll, trace.MaskOf(isa.OpIMul, isa.OpFDiv), trace.MaskAll, trace.MaskAll, trace.MaskAll}
	for _, enc := range encodings {
		serial := Serial()
		fan := New(8)
		for _, e := range []*Engine{serial, fan} {
			if !e.adoptIngest("fmt", enc.data, enc.events) {
				t.Fatalf("%s: adoptIngest refused the stream", enc.name)
			}
		}
		sn, sout := replayRecorded(t, serial, "fmt", noCapture, masks)
		fn, fout := replayRecorded(t, fan, "fmt", noCapture, masks)
		if sn != fn || sn != enc.events {
			t.Fatalf("%s: replayed %d (serial) / %d (fan-out) events, want %d", enc.name, sn, fn, enc.events)
		}
		for i := range sout {
			sameEvents(t, fmt.Sprintf("%s sink %d", enc.name, i), fout[i], sout[i])
		}
		sameEvents(t, enc.name+" vs original", fout[0], want.Events)
		if fan.Stats().FanoutReplays == 0 {
			t.Fatalf("%s: fan-out engine delivered serially", enc.name)
		}
	}
}

// TestFanoutSpillCorruptionMatchesSerial corrupts a spilled trace
// mid-file on both engines: the re-capture must stay transparent and
// the delivered streams identical, exactly as on the serial path.
func TestFanoutSpillCorruptionMatchesSerial(t *testing.T) {
	type world struct {
		e     *Engine
		execs atomic.Int64
	}
	serial, fan := &world{e: Serial()}, &world{e: New(8)}
	masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskAll, trace.MaskAll,
		trace.MaskAll, trace.MaskAll, trace.MaskAll, trace.MaskAll}
	var streams [2][][]trace.Event
	for wi, w := range []*world{serial, fan} {
		w.e.SetCacheLimit(1)
		w.e.SetTraceDir(t.TempDir())
		capture := countingCapture(&w.execs, 30000, 128)

		if _, out := replayRecorded(t, w.e, "big", capture, masks); len(out[0]) != 30000 {
			t.Fatalf("first replay delivered %d events", len(out[0]))
		}
		path := spillPathOf(t, w.e, "big")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		n, out := replayRecorded(t, w.e, "big", capture, masks)
		if n != 30000 {
			t.Fatalf("replay over corrupt spill: n=%d", n)
		}
		if w.execs.Load() != 2 || w.e.Stats().Recaptures != 1 {
			t.Fatalf("execs=%d recaptures=%d, want 2 and 1", w.execs.Load(), w.e.Stats().Recaptures)
		}
		streams[wi] = out
	}
	for i := range streams[0] {
		sameEvents(t, fmt.Sprintf("post-corruption sink %d", i), streams[1][i], streams[0][i])
	}
}

// TestFanoutGroupsPartitioning pins the splitting rules directly.
func TestFanoutGroupsPartitioning(t *testing.T) {
	r1, r2, r3 := &trace.Recorder{}, &trace.Recorder{}, &trace.Recorder{}
	a := maskedRec{rec: r1, mask: trace.MaskAll}
	b := maskedRec{rec: r2, mask: trace.MaskAll}
	c := maskedRec{rec: r3, mask: trace.MaskOf(isa.OpFDiv)}
	masksOf := func(sinks []trace.Sink) []trace.OpMask { return trace.SinkMasks(sinks) }

	// Distinct values → distinct groups.
	sinks := []trace.Sink{a, b, c}
	if g := fanoutGroups(sinks, masksOf(sinks)); len(g) != 3 {
		t.Fatalf("3 distinct sinks split into %d groups", len(g))
	}
	// Repeated occurrences of one value share a group, in order.
	sinks = []trace.Sink{a, b, a}
	g := fanoutGroups(sinks, masksOf(sinks))
	if len(g) != 2 || len(g[0].sinks) != 2 || len(g[1].sinks) != 1 {
		t.Fatalf("duplicate sink grouping: %d groups %v", len(g), g)
	}
	// A shared FanoutGroup key co-schedules distinct sinks.
	sinks = []trace.Sink{trace.Grouped("pair", a), trace.Grouped("pair", c), b}
	g = fanoutGroups(sinks, masksOf(sinks))
	if len(g) != 2 || len(g[0].sinks) != 2 {
		t.Fatalf("keyed grouping: %d groups, first has %d sinks", len(g), len(g[0].sinks))
	}
	if g[0].masks[1] != trace.MaskOf(isa.OpFDiv) {
		t.Fatalf("grouped sink lost its own mask: %04b", g[0].masks[1])
	}
	// A non-comparable sink anywhere defeats the split.
	sinks = []trace.Sink{a, trace.Multi{b, c}}
	if g := fanoutGroups(sinks, masksOf(sinks)); g != nil {
		t.Fatalf("non-comparable sink still split: %v", g)
	}
	if g := fanoutGroups([]trace.Sink{a, nil}, []trace.OpMask{trace.MaskAll, trace.MaskAll}); g != nil {
		t.Fatal("nil sink still split")
	}
}

// TestFanoutNonComparableSinkFallsBackSerial: a replay whose fused sink
// set cannot be partitioned must still deliver correctly — serially.
func TestFanoutNonComparableSinkFallsBackSerial(t *testing.T) {
	capture := emitMixed(blockLen + 11)
	e := New(8)
	inner1, inner2, flat := &trace.Counter{}, &trace.Counter{}, &trace.Counter{}
	n, err := e.ReplayAll("nc", capture, []trace.Sink{trace.Multi{inner1, inner2}, flat})
	if err != nil {
		t.Fatalf("ReplayAll: %v", err)
	}
	if e.Stats().FanoutReplays != 0 {
		t.Fatal("non-comparable sink set went through the fan-out")
	}
	if inner1.Total() != n || inner2.Total() != n || flat.Total() != n {
		t.Fatalf("serial fallback lost events: %d/%d/%d of %d",
			inner1.Total(), inner2.Total(), flat.Total(), n)
	}
}

// TestFanoutDuplicateSinkOccurrences: a sink subscribed twice is owed
// both deliveries in order, through one consumer — the stream it records
// must match the serial engine's double feed exactly.
func TestFanoutDuplicateSinkOccurrences(t *testing.T) {
	capture := emitMixed(2 * blockLen)
	run := func(e *Engine) []trace.Event {
		rec := &trace.Recorder{}
		dup := maskedRec{rec: rec, mask: trace.MaskAll}
		other := maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll}
		if _, err := e.ReplayAll("dup", capture, []trace.Sink{dup, other, dup}); err != nil {
			t.Fatalf("ReplayAll: %v", err)
		}
		return rec.Events
	}
	sout := run(Serial())
	fan := New(8)
	fout := run(fan)
	sameEvents(t, "duplicate-subscription sink", fout, sout)
	if fan.Stats().FanoutReplays != 1 {
		t.Fatalf("fan-out replays = %d, want 1", fan.Stats().FanoutReplays)
	}
}

// TestFanoutBudgetExhaustionFallsBackSerial: with every token held, a
// replay degrades to serial delivery instead of stalling, and tokens
// return when the holder closes.
func TestFanoutBudgetExhaustionFallsBackSerial(t *testing.T) {
	e := New(8)
	if got := e.acquireFanTokens(7); got != 7 {
		t.Fatalf("acquired %d of 7 tokens", got)
	}
	capture := emitMixed(blockLen)
	masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskAll}
	if _, out := replayRecorded(t, e, "starved", capture, masks); len(out[0]) != blockLen {
		t.Fatalf("starved replay delivered %d events", len(out[0]))
	}
	if e.Stats().FanoutReplays != 0 {
		t.Fatal("replay fanned out on a one-token budget")
	}
	e.releaseFanTokens(7)
	if _, err := e.ReplayAll("starved", capture, []trace.Sink{
		maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll},
		maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll},
	}); err != nil {
		t.Fatalf("ReplayAll after release: %v", err)
	}
	if e.Stats().FanoutReplays != 1 {
		t.Fatalf("fan-out replays after token release = %d, want 1", e.Stats().FanoutReplays)
	}
}

// TestFanoutFaultPoints drives the two injection points in error and
// panic mode: every failure must surface as an error from ReplayAll —
// never as a panic — and must leave the engine able to fan out again
// (no leaked tokens, no stuck consumers).
func TestFanoutFaultPoints(t *testing.T) {
	capture := emitMixed(2 * blockLen)
	masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskAll, trace.MaskAll}
	cases := []struct {
		spec string
		want error
	}{
		{"replay.fanout.publish:count=1", faults.ErrInjected},
		{"replay.fanout.consume:count=1", faults.ErrInjected},
		{"replay.fanout.consume:count=1:panic", ErrSinkPanic},
	}
	for _, tc := range cases {
		e := New(8)
		if err := e.Warm("flt", capture); err != nil {
			t.Fatal(err)
		}
		withFaults(t, tc.spec)
		sinks := make([]trace.Sink, len(masks))
		for i, m := range masks {
			sinks[i] = maskedRec{rec: &trace.Recorder{}, mask: m}
		}
		_, err := e.ReplayAll("flt", capture, sinks)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.spec, err, tc.want)
		}
		faults.Activate(nil)

		// The pipeline must have fully torn down: a fresh replay fans out.
		before := e.Stats().FanoutReplays
		if _, out := replayRecorded(t, e, "flt", capture, masks); len(out[0]) != 2*blockLen {
			t.Fatalf("%s: post-fault replay delivered %d events", tc.spec, len(out[0]))
		}
		if e.Stats().FanoutReplays != before+1 {
			t.Fatalf("%s: fan-out did not recover (replays %d -> %d)", tc.spec, before, e.Stats().FanoutReplays)
		}
	}
}

// TestFanoutProducerPanicReleasesTokens: a panic unwinding through the
// publish loop (an injected panic at the publish point) must stop the
// consumers and return the tokens before propagating.
func TestFanoutProducerPanicReleasesTokens(t *testing.T) {
	capture := emitMixed(blockLen)
	e := New(8)
	if err := e.Warm("pp", capture); err != nil {
		t.Fatal(err)
	}
	withFaults(t, "replay.fanout.publish:count=1:panic")
	sinks := []trace.Sink{
		maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll},
		maskedRec{rec: &trace.Recorder{}, mask: trace.MaskAll},
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected producer panic did not propagate")
			}
		}()
		_, _ = e.ReplayAll("pp", capture, sinks)
	}()
	faults.Activate(nil)
	e.mu.Lock()
	inUse := e.fanInUse
	e.mu.Unlock()
	if inUse != 0 {
		t.Fatalf("%d fan-out tokens leaked across a producer panic", inUse)
	}
	if _, err := e.ReplayAll("pp", capture, sinks); err != nil {
		t.Fatalf("replay after producer panic: %v", err)
	}
	if e.Stats().FanoutReplays != 1 {
		t.Fatalf("fan-out replays after recovery = %d, want 1", e.Stats().FanoutReplays)
	}
}

// TestFanoutStatsHammer is the -race audit of the counters reachable
// from fan-out consumers: concurrent fused replays over several keys
// race a reader looping over every stats accessor.
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
		// Decode every key's blocks before the hammer: a replay that
		// finds another goroutine mid-decode takes the byte path, which
		// the per-sink delivery counter balanced below does not see.
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
				int64(e.Stats().DecodedEntries) + int64(e.FanOut()) + int64(e.Workers())
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 8; iter++ {
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
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone
	if e.Stats().FanoutReplays == 0 {
		t.Fatal("hammer never fanned out")
	}
	// Per-sink accounting must balance: six sinks saw every event of
	// every replay, serial or fanned.
	want := e.Stats().ReplayedEvents * 6
	if e.Stats().DeliveredEvents != want {
		t.Fatalf("delivered %d per-sink events, want %d", e.Stats().DeliveredEvents, want)
	}
}
