package engine

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// encodeStream runs a capture through the v2 writer and returns the
// encoded stream an external producer would send over a socket.
func encodeStream(t *testing.T, capture CaptureFunc, compress bool) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := trace.NewWriterV2(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	capture(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tw.Count()
}

// chunkedSource stands in for a live producer: it hands out data in
// reads of pseudo-random size, from one byte to 48 KiB, then returns end
// (io.EOF for a finished stream).
type chunkedSource struct {
	data []byte
	rng  *rand.Rand
	end  error
	off  int
}

// chunked returns a finished stream read in chunk sizes drawn from seed.
func chunked(data []byte, seed int64) *chunkedSource {
	return &chunkedSource{data: data, rng: rand.New(rand.NewSource(seed)), end: io.EOF}
}

func (c *chunkedSource) Read(p []byte) (int, error) {
	if c.off == len(c.data) {
		return 0, c.end
	}
	n := copy(p, c.data[c.off:min(len(c.data), c.off+1+c.rng.Intn(48<<10))])
	c.off += n
	return n, nil
}

// frameSizes returns the event count of each frame that lies whole in
// data, a clean stream or one cut off inside a frame.
func frameSizes(t *testing.T, data []byte) []uint64 {
	t.Helper()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []uint64
	for {
		evs, err := r.NextFrame()
		if err == io.EOF || errors.Is(err, trace.ErrBadTrace) && strings.Contains(err.Error(), "torn") {
			return sizes
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, uint64(len(evs)))
	}
}

// TestIngestMatchesOfflineReplay is the acceptance differential: a
// stream ingested from a source that hands it out in random chunks
// delivers the byte-identical event sequence — and therefore identical
// final sink state — as an offline ReplayAll of the same capture.
func TestIngestMatchesOfflineReplay(t *testing.T) {
	capture := emitN(60000, 128)
	for _, compress := range []bool{false, true} {
		data, events := encodeStream(t, capture, compress)

		var liveRec trace.Recorder
		var liveCnt trace.Counter
		st, err := Ingest(chunked(data, 31), IngestOptions{Sinks: []trace.Sink{&liveRec, &liveCnt}})
		if err != nil {
			t.Fatalf("compress=%v: ingest: %v", compress, err)
		}
		if st.Events != events || st.Frames != uint64(len(frameSizes(t, data))) || st.Bytes != int64(len(data)) {
			t.Fatalf("compress=%v: stats %+v, want %d events in %d bytes", compress, st, events, len(data))
		}

		off := New(2)
		var offRec trace.Recorder
		var offCnt trace.Counter
		if _, err := off.ReplayAll("off", capture, []trace.Sink{&offRec, &offCnt}); err != nil {
			t.Fatal(err)
		}
		if len(liveRec.Events) != len(offRec.Events) {
			t.Fatalf("compress=%v: live delivered %d events, offline %d", compress, len(liveRec.Events), len(offRec.Events))
		}
		for i := range liveRec.Events {
			if liveRec.Events[i] != offRec.Events[i] {
				t.Fatalf("compress=%v: event %d: live %+v offline %+v", compress, i, liveRec.Events[i], offRec.Events[i])
			}
		}
		if liveCnt != offCnt {
			t.Fatalf("compress=%v: live counts %v, offline %v", compress, liveCnt, offCnt)
		}
	}
}

// TestIngestTornTailFailsSeal: a producer that dies mid-frame leaves a
// torn tail; Ingest fails hard.
func TestIngestTornTailFailsSeal(t *testing.T) {
	data, _ := encodeStream(t, emitN(20000, 64), false)

	_, err := Ingest(bytes.NewReader(data[:len(data)-75]), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if !errors.Is(err, trace.ErrBadTrace) || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("err = %v, want a torn ErrBadTrace", err)
	}
}

// TestIngestMidStreamCorruption: a frame failing its checksum stops the
// ingest at the damaged frame; earlier frames were delivered, nothing
// after them was, and the ingest fails.
func TestIngestMidStreamCorruption(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01

	var rec trace.Recorder
	src := &chunkedSource{data: corrupt, rng: rand.New(rand.NewSource(32)), end: io.EOF}
	_, err := Ingest(src, IngestOptions{Sinks: []trace.Sink{&rec}})
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("frames before the corruption should have been delivered")
	}
	var clean trace.Recorder
	if _, err := Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&clean}}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) >= len(clean.Events) || !slices.Equal(rec.Events, clean.Events[:len(rec.Events)]) {
		t.Fatalf("corrupt stream delivered %d events, not a prefix of the clean %d", len(rec.Events), len(clean.Events))
	}
}

// TestIngestEmptyStream: a header-only stream is a valid empty capture
// and seals cleanly; an empty source and a v1 stream are not v2
// streams.
func TestIngestEmptyStream(t *testing.T) {
	data, _ := encodeStream(t, func(trace.Sink) {}, false)
	st, err := Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.Frames != 0 || st.Bytes != int64(len(data)) {
		t.Fatalf("empty stream: %+v", st)
	}
	for name, stream := range map[string][]byte{
		"no bytes":  nil,
		"v1 stream": {'M', 'T', 'R', 'C', 1, 0, 1, 2},
	} {
		if _, err := Ingest(bytes.NewReader(stream), IngestOptions{}); !errors.Is(err, trace.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
}

// TestIngestSnapshots: rolling snapshots fire after exactly the frames
// that cross each multiple of the period, with that frame's running
// event and frame counts.
func TestIngestSnapshots(t *testing.T) {
	const every = 10000
	data, events := encodeStream(t, emitN(60000, 64), false)
	var want []IngestStats
	var run IngestStats
	next := uint64(every)
	for _, n := range frameSizes(t, data) {
		run.Frames++
		run.Events += n
		if run.Events >= next {
			for next <= run.Events {
				next += every
			}
			want = append(want, run)
		}
	}

	var snaps []IngestStats
	st, err := Ingest(chunked(data, 33), IngestOptions{
		Sinks:         []trace.Sink{&trace.Counter{}},
		SnapshotEvery: every,
		OnSnapshot:    func(st IngestStats) { snaps = append(snaps, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 || len(snaps) != len(want) {
		t.Fatalf("%d snapshots fired, want %d", len(snaps), len(want))
	}
	var prev uint64
	for i, s := range snaps {
		if s.Events <= prev {
			t.Fatalf("snapshot %d not monotonic: %d after %d", i, s.Events, prev)
		}
		prev = s.Events
		if s.Events != want[i].Events || s.Frames != want[i].Frames || s.Bytes > st.Bytes {
			t.Fatalf("snapshot %d = %+v, want %d events in %d frames", i, s, want[i].Events, want[i].Frames)
		}
	}
	if prev > events {
		t.Fatalf("snapshot events %d exceed stream events %d", prev, events)
	}
}

// TestIngestAbortLeavesNothing: a producer that stops mid-frame — its
// stream's read fails — ends the ingest with that error, as itself,
// after every complete frame before it and nothing of the partial one.
// A stream that ends cleanly afterwards seals.
func TestIngestAbortLeavesNothing(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	sizes := frameSizes(t, data)
	if len(sizes) < 3 {
		t.Fatalf("stream has %d frames, want at least 3", len(sizes))
	}
	errGone := errors.New("producer gone")
	var rec trace.Recorder
	src := &chunkedSource{data: data[:len(data)/2], rng: rand.New(rand.NewSource(36)), end: errGone}
	st, err := Ingest(src, IngestOptions{Sinks: []trace.Sink{&rec}})
	if !errors.Is(err, errGone) || errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	var whole uint64 // events of the frames that lie whole in the first half
	for _, n := range frameSizes(t, data[:len(data)/2]) {
		whole += n
	}
	if whole == 0 || st.Events != whole || uint64(len(rec.Events)) != whole {
		t.Fatalf("abandoned stream delivered %+v (sink %d), want the %d events of the whole frames", st, len(rec.Events), whole)
	}

	st, err = Ingest(chunked(data, 37), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err != nil || st.Events != events {
		t.Fatalf("clean stream after an abandoned one: err %v, %d events", err, st.Events)
	}
}

// TestIngestFaultPoints drives each ingest.* injection point and checks
// the failure surfaces at the right edge.
func TestIngestFaultPoints(t *testing.T) {
	defer faults.Activate(nil)
	data, events := encodeStream(t, emitN(20000, 64), false)

	for _, tc := range []struct {
		point     string
		delivered uint64 // events delivered before the fault
	}{
		{faults.IngestFeed, 0},
		{faults.IngestFrame, 0},
		{faults.IngestSeal, events},
	} {
		plan, err := faults.New(1, faults.Rule{Point: tc.point, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		faults.Activate(plan)
		var cnt trace.Counter
		st, err := Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&cnt}})
		faults.Activate(nil)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: err = %v, want injected ingest failure", tc.point, err)
		}
		if st.Events != tc.delivered || cnt.Total() != tc.delivered {
			t.Fatalf("%s: delivered %d (sink %d) events, want %d", tc.point, st.Events, cnt.Total(), tc.delivered)
		}
	}
}

// TestIngestBrokenStreamDeliversNothingPastBreak: an ingest that has
// delivered more than a batch of its stream and then breaks, on a
// corrupt frame or an injected frame fault, has delivered exactly the
// frames before the break and nothing after it.
func TestIngestBrokenStreamDeliversNothingPastBreak(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
	sizes := frameSizes(t, data)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)*3/4] ^= 0x01
	for _, tc := range []struct {
		name   string
		stream []byte
		rule   *faults.Rule
		want   error
	}{
		{"corrupt frame", corrupt, nil, trace.ErrBadTrace},
		{"ingest.frame fault", data, &faults.Rule{Point: faults.IngestFrame, After: 1, Count: 1}, faults.ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rule != nil {
				plan, err := faults.New(1, *tc.rule)
				if err != nil {
					t.Fatal(err)
				}
				faults.Activate(plan)
				defer faults.Activate(nil)
			}
			var rec trace.Recorder
			st, err := Ingest(chunked(tc.stream, 34), IngestOptions{Sinks: []trace.Sink{&rec}})
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if st.Events <= blockLen {
				t.Fatalf("stream delivered %d events before it broke, want more than a batch", st.Events)
			}
			var before uint64 // events of the frames before the break
			for _, n := range sizes[:st.Frames] {
				before += n
			}
			if st.Frames >= uint64(len(sizes)) || st.Events != before || uint64(len(rec.Events)) != before {
				t.Fatalf("broken stream delivered %+v (sink %d) of %d frames, want the frames before the break", st, len(rec.Events), len(sizes))
			}
		})
	}
}

// lateSink panics on its panicAt-th batch (counting from 1).
type lateSink struct {
	panicAt, batches int
}

func (p *lateSink) Emit(trace.Event) {}

func (p *lateSink) EmitBatch([]trace.Event) {
	if p.batches++; p.batches == p.panicAt {
		panic("sink on fire")
	}
}

// TestIngestRecoversPanics: a panic during an ingest — a sink's, or an
// injected one at any point the ingest passes — comes back as an error,
// never as a panic, after exactly the frames before the failing one. A
// sink panic wraps ErrSinkPanic; an injected panic keeps its fault as
// the cause.
func TestIngestRecoversPanics(t *testing.T) {
	defer faults.Activate(nil)
	data, events := encodeStream(t, emitN(60000, 64), false)
	sizes := frameSizes(t, data)
	if len(sizes) < 3 {
		t.Fatalf("stream has %d frames, want at least 3", len(sizes))
	}
	var readHalf uint64 // events of the frames that lie whole in the first half
	for _, n := range frameSizes(t, data[:len(data)/2]) {
		readHalf += n
	}
	for _, tc := range []struct {
		name      string
		rule      *faults.Rule
		sink      bool   // a panicking sink ahead of the recorder
		delivered uint64 // events delivered before the panic
		want      error
	}{
		{"panicking sink", nil, true, sizes[0], ErrSinkPanic},
		{faults.SinkEmit, &faults.Rule{Point: faults.SinkEmit, After: 1, Count: 1, Mode: faults.ModePanic}, false, sizes[0], ErrSinkPanic},
		{faults.IngestFeed, &faults.Rule{Point: faults.IngestFeed, After: int64(len(data) / 2), Count: 1, Mode: faults.ModePanic}, false, readHalf, faults.ErrInjected},
		{faults.IngestFrame, &faults.Rule{Point: faults.IngestFrame, After: 1, Count: 1, Mode: faults.ModePanic}, false, sizes[0], faults.ErrInjected},
		{faults.IngestSeal, &faults.Rule{Point: faults.IngestSeal, Count: 1, Mode: faults.ModePanic}, false, events, faults.ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rule != nil {
				plan, err := faults.New(1, *tc.rule)
				if err != nil {
					t.Fatal(err)
				}
				faults.Activate(plan)
				defer faults.Activate(nil)
			}
			var rec trace.Recorder
			sinks := []trace.Sink{&rec}
			if tc.sink {
				sinks = []trace.Sink{&lateSink{panicAt: 2}, &rec}
			}
			// One-byte reads put the ingest.feed panic at an exact
			// stream offset.
			st, err := Ingest(iotest.OneByteReader(bytes.NewReader(data)), IngestOptions{Sinks: sinks})
			if err == nil || !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.rule != nil && !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("err = %v, want the injected fault as its cause", err)
			}
			if st.Events != tc.delivered || uint64(len(rec.Events)) != tc.delivered {
				t.Fatalf("delivered %+v (sink %d), want %d events", st, len(rec.Events), tc.delivered)
			}
		})
	}
}
