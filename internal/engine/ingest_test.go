package engine

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

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
// (io.EOF for a finished stream). onRead, when set, runs before each
// read with the number of bytes already handed out.
type chunkedSource struct {
	data   []byte
	rng    *rand.Rand
	end    error
	off    int
	onRead func(off int)
}

// chunked returns a finished stream read in chunk sizes drawn from seed.
func chunked(data []byte, seed int64) *chunkedSource {
	return &chunkedSource{data: data, rng: rand.New(rand.NewSource(seed)), end: io.EOF}
}

func (c *chunkedSource) Read(p []byte) (int, error) {
	if c.onRead != nil {
		c.onRead(c.off)
	}
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

		e := New(2)
		var liveRec trace.Recorder
		var liveCnt trace.Counter
		st, err := e.Ingest(chunked(data, 31), IngestOptions{Sinks: []trace.Sink{&liveRec, &liveCnt}})
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
		if es := e.Stats(); es.IngestedEvents != events || es.IngestedFrames != st.Frames ||
			es.IngestedBytes != uint64(len(data)) || es.SealedIngests != 1 {
			t.Fatalf("compress=%v: engine counters %+v", compress, es)
		}
	}
}

// TestIngestTornTailFailsSeal: a producer that dies mid-frame leaves a
// torn tail; Ingest fails hard and does not count the stream sealed.
func TestIngestTornTailFailsSeal(t *testing.T) {
	data, _ := encodeStream(t, emitN(20000, 64), false)

	e := New(1)
	_, err := e.Ingest(bytes.NewReader(data[:len(data)-75]), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if !errors.Is(err, trace.ErrBadTrace) || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("err = %v, want a torn ErrBadTrace", err)
	}
	if e.Stats().SealedIngests != 0 {
		t.Fatalf("torn stream counted as sealed")
	}
}

// TestIngestMidStreamCorruption: a frame failing its checksum stops the
// ingest at the damaged frame; earlier frames were delivered, nothing
// after them was, and the stream never seals.
func TestIngestMidStreamCorruption(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01

	e := New(1)
	var rec trace.Recorder
	src := &chunkedSource{data: corrupt, rng: rand.New(rand.NewSource(32)), end: io.EOF}
	_, err := e.Ingest(src, IngestOptions{Sinks: []trace.Sink{&rec}})
	if !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
	if len(rec.Events) == 0 {
		t.Fatal("frames before the corruption should have been delivered")
	}
	var clean trace.Recorder
	if _, err := New(1).Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&clean}}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) >= len(clean.Events) || !slices.Equal(rec.Events, clean.Events[:len(rec.Events)]) {
		t.Fatalf("corrupt stream delivered %d events, not a prefix of the clean %d", len(rec.Events), len(clean.Events))
	}
	if e.Stats().SealedIngests != 0 {
		t.Fatal("corrupt stream counted as sealed")
	}
}

// TestIngestEmptyStream: a header-only stream is a valid empty capture
// and seals cleanly; an empty source and a v1 stream are not v2
// streams.
func TestIngestEmptyStream(t *testing.T) {
	data, _ := encodeStream(t, func(trace.Sink) {}, false)
	e := New(1)
	st, err := e.Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.Frames != 0 || st.Bytes != int64(len(data)) || e.Stats().SealedIngests != 1 {
		t.Fatalf("empty stream: %+v, %d sealed", st, e.Stats().SealedIngests)
	}
	for name, stream := range map[string][]byte{
		"no bytes":  nil,
		"v1 stream": {'M', 'T', 'R', 'C', 1, 0, 1, 2},
	} {
		if _, err := e.Ingest(bytes.NewReader(stream), IngestOptions{}); !errors.Is(err, trace.ErrBadTrace) {
			t.Fatalf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
	if n := e.Stats().SealedIngests; n != 1 {
		t.Fatalf("%d sealed ingests, want 1", n)
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

	e := New(1)
	var snaps []IngestStats
	st, err := e.Ingest(chunked(data, 33), IngestOptions{
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
// after every complete frame before it and nothing of the partial one,
// and the stream is never counted sealed. A stream that ends cleanly
// afterwards seals.
func TestIngestAbortLeavesNothing(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	sizes := frameSizes(t, data)
	if len(sizes) < 3 {
		t.Fatalf("stream has %d frames, want at least 3", len(sizes))
	}
	e := New(1)
	defer e.Close()
	errGone := errors.New("producer gone")
	var rec trace.Recorder
	src := &chunkedSource{data: data[:len(data)/2], rng: rand.New(rand.NewSource(36)), end: errGone}
	st, err := e.Ingest(src, IngestOptions{Sinks: []trace.Sink{&rec}})
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
	if n := e.Stats().SealedIngests; n != 0 {
		t.Fatalf("abandoned stream counted as sealed (%d)", n)
	}

	st, err = e.Ingest(chunked(data, 37), IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err != nil || st.Events != events || e.Stats().SealedIngests != 1 {
		t.Fatalf("clean stream after an abandoned one: err %v, %d events, %d sealed", err, st.Events, e.Stats().SealedIngests)
	}
}

// TestIngestFaultPoints drives each ingest.* injection point and checks
// the failure surfaces at the right edge and the stream never seals.
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
		e := New(1)
		var cnt trace.Counter
		st, err := e.Ingest(bytes.NewReader(data), IngestOptions{Sinks: []trace.Sink{&cnt}})
		faults.Activate(nil)
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: err = %v, want injected ingest failure", tc.point, err)
		}
		if st.Events != tc.delivered || cnt.Total() != tc.delivered {
			t.Fatalf("%s: delivered %d (sink %d) events, want %d", tc.point, st.Events, cnt.Total(), tc.delivered)
		}
		if n := e.Stats().SealedIngests; n != 0 {
			t.Fatalf("%s: faulted stream counted as sealed (%d)", tc.point, n)
		}
	}
}

// TestIngestConcurrentWithReplayHammer is the -race audit of the rolling
// counters: a live ingest, fused replays of other keys, and a stats
// reader all run concurrently against one engine.
func TestIngestConcurrentWithReplayHammer(t *testing.T) {
	data, events := encodeStream(t, emitN(40000, 64), true)
	e := New(4)

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	var wg sync.WaitGroup

	// Stats reader: every engine counter, continuously.
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Stats().Captures + e.Stats().Replays + e.Stats().ReplayedEvents +
				e.Stats().DeliveredEvents + e.Stats().MaskSkips +
				e.Stats().IngestedFrames + e.Stats().IngestedEvents + e.Stats().SealedIngests
		}
	}()

	// Replay traffic on unrelated keys.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			for i := 0; i < 20; i++ {
				var cnt trace.Counter
				if _, err := e.Replay("replay-"+key, emitN(5000, 32), &cnt); err != nil {
					t.Errorf("replay %s: %v", key, err)
					return
				}
			}
		}(w)
	}

	// The live ingest, on its own goroutine like a socket handler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var snapEvents uint64
		st, err := e.Ingest(chunked(data, 37), IngestOptions{
			Sinks:         []trace.Sink{&trace.Counter{}},
			SnapshotEvery: 5000,
			OnSnapshot:    func(st IngestStats) { snapEvents = st.Events },
		})
		if err != nil {
			t.Errorf("ingest: %v", err)
			return
		}
		if st.Events != events || snapEvents == 0 {
			t.Errorf("live ingest delivered %d of %d events (snap %d)", st.Events, events, snapEvents)
		}
	}()

	wg.Wait()
	close(stop)
	<-readerDone

	if e.Stats().IngestedEvents != events {
		t.Fatalf("ingested events %d, want %d", e.Stats().IngestedEvents, events)
	}
	if e.Stats().SealedIngests != 1 {
		t.Fatalf("sealed ingests %d, want 1", e.Stats().SealedIngests)
	}
}

// TestIngestBrokenStreamDeliversNothingPastBreak: an ingest that has
// delivered more than a batch of its stream and then breaks, on a
// corrupt frame or an injected frame fault, has delivered exactly the
// frames before the break and leaves nothing else: no file in the trace
// dir or the attached store, no fingerprint, no sealed stream.
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
			traceDir, storeDir := t.TempDir(), t.TempDir()
			e := New(1)
			defer e.Close()
			e.SetTraceDir(traceDir)
			e.SetStore(openStore(t, storeDir))
			if tc.rule != nil {
				plan, err := faults.New(1, *tc.rule)
				if err != nil {
					t.Fatal(err)
				}
				faults.Activate(plan)
				defer faults.Activate(nil)
			}
			var rec trace.Recorder
			st, err := e.Ingest(chunked(tc.stream, 34), IngestOptions{Sinks: []trace.Sink{&rec}})
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
			for _, dir := range []string{traceDir, storeDir} {
				if got := dirFiles(t, dir); len(got) != 0 {
					t.Fatalf("broken stream left %d files in %s", len(got), dir)
				}
			}
			if st := e.Stats(); st.SealedIngests != 0 || len(e.TraceFingerprints()) != 0 {
				t.Fatalf("broken stream left %d sealed, fingerprints %v", st.SealedIngests, e.TraceFingerprints())
			}
		})
	}
}

// TestIngestDeliversWholeStreamUnderStoreFaultOrClose: an ingest keeps
// delivering its whole stream and seals cleanly when store writes fail,
// and when the engine closes under it mid-stream; neither case writes a
// file.
func TestIngestDeliversWholeStreamUnderStoreFaultOrClose(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	check := func(t *testing.T, e *Engine, st IngestStats, err error, cnt *trace.Counter) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if st.Events != events || cnt.Total() != events {
			t.Fatalf("delivered %d (sink %d) of %d events", st.Events, cnt.Total(), events)
		}
		if st := e.Stats(); st.SealedIngests != 1 || len(e.TraceFingerprints()) != 0 {
			t.Fatalf("%d sealed streams, fingerprints %v; want 1 and none", st.SealedIngests, e.TraceFingerprints())
		}
	}

	t.Run("store.write fault", func(t *testing.T) {
		dir := t.TempDir()
		e := New(1)
		defer e.Close()
		e.SetStore(openStore(t, dir))
		plan := withFaults(t, "store.write")
		var cnt trace.Counter
		st, err := e.Ingest(chunked(data, 38), IngestOptions{Sinks: []trace.Sink{&cnt}})
		check(t, e, st, err, &cnt)
		if plan.Fired() != 0 {
			t.Fatalf("store.write fired %d times; ingest writes no store", plan.Fired())
		}
		if got := dirFiles(t, dir); len(got) != 0 {
			t.Fatalf("ingest left %d files in the store", len(got))
		}
	})

	t.Run("closed mid-stream", func(t *testing.T) {
		traceDir := t.TempDir()
		e := New(1)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		src := chunked(data, 39)
		closed := false
		src.onRead = func(off int) {
			if off >= len(data)/4 && !closed {
				closed = true
				if err := e.Close(); err != nil {
					t.Error(err)
				}
			}
		}
		st, err := e.Ingest(src, IngestOptions{Sinks: []trace.Sink{&cnt}})
		if !closed {
			t.Fatal("the engine never closed mid-stream")
		}
		check(t, e, st, err, &cnt)
		if got := dirFiles(t, traceDir); len(got) != 0 {
			t.Fatalf("closed engine left %d files in the trace dir", len(got))
		}
	})
}

// TestIngestRacingCloseNeverStopsIt: Close racing an ingest — mid-stream,
// at its end or after — never stops it: the ingest delivers every event
// and seals whichever side wins, and the trace dir stays empty.
func TestIngestRacingCloseNeverStopsIt(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	for i := 0; i < 8; i++ {
		traceDir := t.TempDir()
		e := New(1)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		closed := make(chan error, 1)
		src := chunked(data, int64(i))
		var once sync.Once
		src.onRead = func(int) { once.Do(func() { go func() { closed <- e.Close() }() }) }
		if _, err := e.Ingest(src, IngestOptions{Sinks: []trace.Sink{&cnt}}); err != nil {
			t.Fatal(err)
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if cnt.Total() != events || e.Stats().SealedIngests != 1 {
			t.Fatalf("run %d: delivered %d of %d events, %d sealed", i, cnt.Total(), events, e.Stats().SealedIngests)
		}
		if got := dirFiles(t, traceDir); len(got) != 0 {
			t.Fatalf("run %d: %d files in the trace dir after Close", i, len(got))
		}
	}
}
