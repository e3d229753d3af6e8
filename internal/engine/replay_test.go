package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// emitPhased emits blockLen events per operation class in runs, so
// consecutive batches carry different single-op masks and the skip path
// actually skips.
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
	// batch reaches it twice before the next batch starts.
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

	// The same stream encoded as v1, plain v2 and compressed v2, run as
	// a workload that decodes the bytes into the engine in batches (a
	// recorded trace replayed through the EmitBatch path), delivers to
	// every masked sink exactly what the direct run delivers.
	t.Run("formats", func(t *testing.T) {
		capture := emitMixed(2*blockLen + 137) // a ragged tail batch
		masks := []trace.OpMask{trace.MaskAll, trace.MaskAll, trace.MaskOf(isa.OpFMul),
			trace.MaskAll, trace.MaskOf(isa.OpIMul, isa.OpFDiv), trace.MaskAll, trace.MaskAll, trace.MaskAll}
		_, want := replayRecorded(t, New(1), "direct", capture, masks)
		v1, n1 := encodeV1(capture)
		v2, n2 := encodeStream(t, capture, false)
		v2c, n2c := encodeStream(t, capture, true)
		for _, enc := range []struct {
			name   string
			data   []byte
			events uint64
		}{{"v1", v1, n1}, {"v2", v2, n2}, {"v2-compressed", v2c, n2c}} {
			decode := func(s trace.Sink) {
				r, err := trace.NewReader(bytes.NewReader(enc.data))
				if err != nil {
					panic(err)
				}
				if _, err := r.ReplayBatch(s); err != nil {
					panic(err)
				}
			}
			e := New(8)
			n, got := replayRecorded(t, e, "fmt", decode, masks)
			if n != enc.events {
				t.Fatalf("%s: delivered %d events, want %d", enc.name, n, enc.events)
			}
			for i := range got {
				sameEvents(t, fmt.Sprintf("%s sink %d", enc.name, i), got[i], want[i])
			}
		}
	})
}

// encodeV1 encodes a capture in the v1 format: the header, then per
// event its op byte and uvarint operands.
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
// whose class mask intersects none of a batch's events.
func TestOpMaskSkipsWholeBlocks(t *testing.T) {
	e := New(1)
	const events = 20000
	capture := emitMixed(events)
	var rec trace.Recorder
	skip := &maskedSink{t: t}
	n, err := e.ReplayAll("k", capture, []trace.Sink{&rec, skip})
	if err != nil {
		t.Fatal(err)
	}
	if n != events || len(rec.Events) != events {
		t.Fatalf("unmasked sink got %d of %d events", len(rec.Events), events)
	}

	// One sink per OpMask over a trace whose batches each carry a single
	// class: the empty mask sees nothing, a single-class mask sees
	// exactly its batch, MaskAll sees the whole stream, and every
	// (sink, batch) pair whose masks miss is counted as a skip. A
	// workload emitting in ragged EmitBatch chunks is cut at the same
	// batch boundaries as one emitting event by event.
	for name, batched := range map[string]bool{"every mask combination": false, "ragged EmitBatch chunks": true} {
		t.Run(name, func(t *testing.T) {
			const combos = 16 // every subset of the four classes emitPhased uses
			masks := make([]trace.OpMask, combos+1)
			for i := 0; i < combos; i++ {
				masks[i] = trace.OpMask(i)
			}
			masks[combos] = trace.MaskAll
			e := New(8)
			capture := emitPhased()
			if batched {
				capture = emitRagged(capture)
			}
			_, got := replayRecorded(t, e, "masks", capture, masks)
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
			// Each single-class batch misses the 8 subsets without its class.
			if st := e.Stats(); st.MaskSkips != 4*8 || st.DeliveredEvents != delivered(got) {
				t.Fatalf("mask skips %d, delivered %d; want %d and %d", st.MaskSkips, st.DeliveredEvents, 4*8, delivered(got))
			}
		})
	}
}

// emitRagged re-emits capture's stream through EmitBatch in chunks of
// 1 to 5000 events, which straddle the batch boundaries.
func emitRagged(capture CaptureFunc) CaptureFunc {
	var rec trace.Recorder
	capture(&rec)
	return func(s trace.Sink) {
		bs := s.(trace.BatchSink)
		evs := rec.Events
		for n := 1; len(evs) > 0; n = n*7%5000 + 1 {
			k := min(n, len(evs))
			bs.EmitBatch(evs[:k])
			evs = evs[k:]
		}
	}
}

// TestFanoutStatsHammer is the -race audit of the counters a fused run
// touches: concurrent runs over several keys, each fed to six sinks,
// race a reader looping over every stats accessor. The name predates
// the serial delivery loop; the counters it audits remain.
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
			_ = e.Stats().Captures + e.Stats().Replays + e.Stats().ReplayedEvents +
				e.Stats().DeliveredEvents + e.Stats().MaskSkips + uint64(e.Workers())
			_ = e.TraceFingerprints()
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
	if want := uint64(len(keys) + workers*iters); st.Captures != want || st.Replays != want {
		t.Fatalf("captures = %d, replays = %d, want %d each", st.Captures, st.Replays, want)
	}
	// Every event of every run, first round included, is counted once.
	if first := uint64(len(keys)) * 2 * blockLen; st.ReplayedEvents != first+events {
		t.Fatalf("replayed %d events, want %d", st.ReplayedEvents, first+events)
	}
	// Per-sink accounting must balance: six sinks saw every event of
	// every replay.
	if want := st.ReplayedEvents * 6; st.DeliveredEvents != want {
		t.Fatalf("delivered %d per-sink events, want %d", st.DeliveredEvents, want)
	}
}
