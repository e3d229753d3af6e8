package engine

import (
	"bytes"
	"errors"
	"math/rand"
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

// feedChunked pushes a stream into a session in pseudo-random chunks.
func feedChunked(t *testing.T, s *IngestSession, data []byte, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for off := 0; off < len(data); {
		n := 1 + rng.Intn(48<<10)
		if off+n > len(data) {
			n = len(data) - off
		}
		if err := s.Feed(data[off : off+n]); err != nil {
			t.Fatalf("feed at offset %d: %v", off, err)
		}
		off += n
	}
}

// TestIngestMatchesOfflineReplay is the acceptance differential: a
// stream fed frame-at-a-time through an ingest session delivers the
// byte-identical event sequence — and therefore identical final sink
// state — as an offline ReplayAll of the same capture.
func TestIngestMatchesOfflineReplay(t *testing.T) {
	capture := emitN(60000, 128)
	for _, compress := range []bool{false, true} {
		data, events := encodeStream(t, capture, compress)

		e := New(2)
		var liveRec trace.Recorder
		var liveCnt trace.Counter
		s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&liveRec, &liveCnt}})
		feedChunked(t, s, data, 31)
		res, err := s.Seal()
		if err != nil {
			t.Fatalf("compress=%v: seal: %v", compress, err)
		}
		if res.Stats.Events != events || res.Stats.Frames == 0 {
			t.Fatalf("compress=%v: sealed stats %+v, want %d events", compress, res.Stats, events)
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
		if e.Stats().IngestedEvents != events || e.Stats().SealedIngests != 1 {
			t.Fatalf("compress=%v: engine counters events=%d sealed=%d", compress, e.Stats().IngestedEvents, e.Stats().SealedIngests)
		}
	}
}

// TestIngestTornTailFailsSeal: a producer that dies mid-frame leaves a
// torn tail; Seal must fail hard and must not count the session sealed.
func TestIngestTornTailFailsSeal(t *testing.T) {
	data, _ := encodeStream(t, emitN(20000, 64), false)

	e := New(1)
	s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data[:len(data)-75]); err != nil {
		t.Fatal(err)
	}
	_, err := s.Seal()
	if !errors.Is(err, ErrIngestBroken) || !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("seal err = %v, want ErrIngestBroken wrapping ErrBadTrace", err)
	}
	if e.Stats().SealedIngests != 0 {
		t.Fatalf("torn session counted as sealed")
	}
	// The session is broken for good.
	if err := s.Feed(data); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("feed after broken seal err = %v", err)
	}
}

// TestIngestMidStreamCorruption: a frame failing its checksum breaks
// the session permanently at the damaged frame; earlier frames were
// delivered, later bytes are refused, and the session never seals.
func TestIngestMidStreamCorruption(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01

	e := New(1)
	var rec trace.Recorder
	s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&rec}})
	var ferr error
	for off := 0; off < len(corrupt); off += 8 << 10 {
		end := off + 8<<10
		if end > len(corrupt) {
			end = len(corrupt)
		}
		if ferr = s.Feed(corrupt[off:end]); ferr != nil {
			break
		}
	}
	if !errors.Is(ferr, ErrIngestBroken) || !errors.Is(ferr, trace.ErrBadTrace) {
		t.Fatalf("feed err = %v, want ErrIngestBroken wrapping ErrBadTrace", ferr)
	}
	if len(rec.Events) == 0 {
		t.Fatal("frames before the corruption should have been delivered")
	}
	if _, err := s.Seal(); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("seal on broken session err = %v", err)
	}
	if e.Stats().SealedIngests != 0 {
		t.Fatal("broken session counted as sealed")
	}
}

// TestIngestEmptyStream: a header-only stream is a valid empty capture
// and seals cleanly.
func TestIngestEmptyStream(t *testing.T) {
	data, _ := encodeStream(t, func(trace.Sink) {}, false)
	e := New(1)
	s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Events != 0 || e.Stats().SealedIngests != 1 {
		t.Fatalf("empty stream seal %+v", res)
	}
	if _, err := s.Seal(); err == nil {
		t.Fatal("double seal succeeded")
	}
}

// TestIngestSnapshots: rolling snapshots fire at the configured period
// with monotonic stats.
func TestIngestSnapshots(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	e := New(1)
	var snaps []IngestStats
	s := e.NewIngest(IngestOptions{
		Sinks:         []trace.Sink{&trace.Counter{}},
		SnapshotEvery: 10000,
		OnSnapshot:    func(st IngestStats) { snaps = append(snaps, st) },
	})
	feedChunked(t, s, data, 33)
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshots fired")
	}
	var prev uint64
	for i, st := range snaps {
		if st.Events <= prev {
			t.Fatalf("snapshot %d not monotonic: %d after %d", i, st.Events, prev)
		}
		prev = st.Events
	}
	if prev > events {
		t.Fatalf("snapshot events %d exceed stream events %d", prev, events)
	}
}

// TestIngestAbortLeavesNothing: a session abandoned mid-stream — the
// producer's read failed — is never counted sealed, and a later Feed or
// Seal reports ErrIngestBroken. Abort after a Seal changes nothing.
func TestIngestAbortLeavesNothing(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	e := New(1)
	defer e.Close()
	s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if err := s.Feed(data[len(data)/2:]); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("feed after abort err = %v, want ErrIngestBroken", err)
	}
	if _, err := s.Seal(); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("seal after abort err = %v, want ErrIngestBroken", err)
	}
	if n := e.Stats().SealedIngests; n != 0 {
		t.Fatalf("aborted session counted as sealed (%d)", n)
	}

	sealed := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	feedChunked(t, sealed, data, 37)
	res, err := sealed.Seal()
	if err != nil {
		t.Fatal(err)
	}
	sealed.Abort()
	if sealed.Err() != nil || res.Stats.Events != events || e.Stats().SealedIngests != 1 {
		t.Fatalf("abort after seal: err %v, %d events, %d sealed", sealed.Err(), res.Stats.Events, e.Stats().SealedIngests)
	}
}

// TestIngestFaultPoints drives each ingest.* injection point and checks
// the failure surfaces at the right edge and the session never seals.
func TestIngestFaultPoints(t *testing.T) {
	defer faults.Activate(nil)
	data, _ := encodeStream(t, emitN(20000, 64), false)

	for _, tc := range []struct {
		point    string
		sealOnly bool
	}{
		{faults.IngestFeed, false},
		{faults.IngestFrame, false},
		{faults.IngestSeal, true},
	} {
		plan, err := faults.New(1, faults.Rule{Point: tc.point, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		faults.Activate(plan)
		e := New(1)
		s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
		ferr := s.Feed(data)
		_, serr := s.Seal()
		faults.Activate(nil)
		if tc.sealOnly {
			if ferr != nil {
				t.Fatalf("%s: feed failed: %v", tc.point, ferr)
			}
			if !errors.Is(serr, ErrIngestBroken) || !errors.Is(serr, faults.ErrInjected) {
				t.Fatalf("%s: seal err = %v, want injected ingest failure", tc.point, serr)
			}
		} else {
			if !errors.Is(ferr, ErrIngestBroken) || !errors.Is(ferr, faults.ErrInjected) {
				t.Fatalf("%s: feed err = %v, want injected ingest failure", tc.point, ferr)
			}
			if serr == nil {
				t.Fatalf("%s: seal succeeded on broken session", tc.point)
			}
		}
		if n := e.Stats().SealedIngests; n != 0 {
			t.Fatalf("%s: faulted session counted as sealed (%d)", tc.point, n)
		}
	}
}

// TestIngestConcurrentWithReplayHammer is the -race audit of the rolling
// counters: a live ingest session, fused replays of other keys, and a
// stats reader all run concurrently against one engine.
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

	// The live session, on its own goroutine like a socket handler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var snapEvents uint64
		s := e.NewIngest(IngestOptions{
			Sinks:         []trace.Sink{&trace.Counter{}},
			SnapshotEvery: 5000,
			OnSnapshot:    func(st IngestStats) { snapEvents = st.Events },
		})
		feedChunked(t, s, data, 37)
		res, err := s.Seal()
		if err != nil {
			t.Errorf("seal: %v", err)
			return
		}
		if res.Stats.Events != events || snapEvents == 0 {
			t.Errorf("live session delivered %d of %d events (snap %d)", res.Stats.Events, events, snapEvents)
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

// TestIngestBrokenAfterOverflowLeavesNothing: a session that has
// delivered more than a batch of its stream — past the point where an
// ingest once overflowed into a store entry — and then breaks, on a
// corrupt frame or an injected frame fault, leaves nothing: no file in
// the trace dir or the attached store, no fingerprint, no sealed
// session.
func TestIngestBrokenAfterOverflowLeavesNothing(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
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
			s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
			if tc.rule != nil {
				plan, err := faults.New(1, *tc.rule)
				if err != nil {
					t.Fatal(err)
				}
				faults.Activate(plan)
				defer faults.Activate(nil)
			}
			half := len(data) / 2
			if err := s.Feed(tc.stream[:half]); err != nil {
				t.Fatal(err)
			}
			if s.Stats().Events <= blockLen {
				t.Fatalf("session delivered %d events by mid-stream, want more than a batch", s.Stats().Events)
			}
			if err := s.Feed(tc.stream[half:]); !errors.Is(err, ErrIngestBroken) || !errors.Is(err, tc.want) {
				t.Fatalf("feed err = %v, want ErrIngestBroken wrapping %v", err, tc.want)
			}
			if _, err := s.Seal(); !errors.Is(err, ErrIngestBroken) {
				t.Fatalf("seal on broken session err = %v", err)
			}
			for _, dir := range []string{traceDir, storeDir} {
				if got := dirFiles(t, dir); len(got) != 0 {
					t.Fatalf("broken session left %d files in %s", len(got), dir)
				}
			}
			if st := e.Stats(); st.SealedIngests != 0 || len(e.TraceFingerprints()) != 0 {
				t.Fatalf("broken session left %d sealed, fingerprints %v", st.SealedIngests, e.TraceFingerprints())
			}
		})
	}
}

// TestIngestOverflowFailureStillDelivers: a session keeps delivering
// its whole stream and seals cleanly when store writes fail, and when
// the engine closes under it mid-stream; neither case writes a file.
func TestIngestOverflowFailureStillDelivers(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	check := func(t *testing.T, e *Engine, s *IngestSession, cnt *trace.Counter) {
		t.Helper()
		res, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Events != events || cnt.Total() != events {
			t.Fatalf("delivered %d (sink %d) of %d events", res.Stats.Events, cnt.Total(), events)
		}
		if st := e.Stats(); st.SealedIngests != 1 || len(e.TraceFingerprints()) != 0 {
			t.Fatalf("%d sealed sessions, fingerprints %v; want 1 and none", st.SealedIngests, e.TraceFingerprints())
		}
	}

	t.Run("store.write fault", func(t *testing.T) {
		dir := t.TempDir()
		e := New(1)
		defer e.Close()
		e.SetStore(openStore(t, dir))
		plan := withFaults(t, "store.write")
		var cnt trace.Counter
		s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&cnt}})
		feedChunked(t, s, data, 38)
		check(t, e, s, &cnt)
		if plan.Fired() != 0 {
			t.Fatalf("store.write fired %d times; ingest writes no store", plan.Fired())
		}
		if got := dirFiles(t, dir); len(got) != 0 {
			t.Fatalf("session left %d files in the store", len(got))
		}
	})

	t.Run("closed before overflow", func(t *testing.T) {
		traceDir := t.TempDir()
		e := New(1)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&cnt}})
		quarter := len(data) / 4
		if err := s.Feed(data[:quarter]); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Feed(data[quarter:]); err != nil {
			t.Fatal(err)
		}
		check(t, e, s, &cnt)
		if got := dirFiles(t, traceDir); len(got) != 0 {
			t.Fatalf("closed engine left %d files in the trace dir", len(got))
		}
	})
}

// TestIngestOverflowRacesClose: Close racing a session — mid-stream,
// mid-seal or after — never stops it: the session delivers every event
// and seals whichever side wins, and the trace dir stays empty.
func TestIngestOverflowRacesClose(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	for i := 0; i < 8; i++ {
		traceDir := t.TempDir()
		e := New(1)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		s := e.NewIngest(IngestOptions{Sinks: []trace.Sink{&cnt}})
		closed := make(chan error, 1)
		go func() { closed <- e.Close() }()
		feedChunked(t, s, data, int64(i))
		if _, err := s.Seal(); err != nil {
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
