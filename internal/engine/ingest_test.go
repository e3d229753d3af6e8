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
		s := e.NewIngest("live", IngestOptions{Sinks: []trace.Sink{&liveRec, &liveCnt}})
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

// TestIngestSealedBecomesWarmEntry: sealing a live session settles the
// stream into the memory tier and the persistent store, so a later
// Replay of the key — in this engine or a cold one sharing the store —
// never executes the workload.
func TestIngestSealedBecomesWarmEntry(t *testing.T) {
	dir := t.TempDir()
	capture := emitN(20000, 64)
	data, events := encodeStream(t, capture, true)

	e := New(2)
	e.SetStore(openStore(t, dir))
	s := e.NewIngest("warm", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Retained || !res.Adopted || !res.Published {
		t.Fatalf("seal result %+v, want retained+adopted+published", res)
	}

	// Same engine: the adopted entry replays without capturing.
	mustNotRun := func(trace.Sink) { t.Fatal("workload executed despite warm ingest entry") }
	var rec trace.Recorder
	if n, err := e.Replay("warm", mustNotRun, &rec); err != nil || n != events {
		t.Fatalf("replay after seal: n=%d err=%v", n, err)
	}
	if e.Stats().Captures != 0 || e.Stats().Replays != 1 {
		t.Fatalf("captures=%d replays=%d, want 0/1", e.Stats().Captures, e.Stats().Replays)
	}

	// Cold engine sharing the store: the sealed entry is a store hit.
	b := New(2)
	b.SetStore(openStore(t, dir))
	if n, err := b.Replay("warm", mustNotRun, &trace.Counter{}); err != nil || n != events {
		t.Fatalf("cold replay: n=%d err=%v", n, err)
	}
	if b.Stats().StoreHits != 1 || b.Stats().Captures != 0 {
		t.Fatalf("cold engine storeHits=%d captures=%d, want 1/0", b.Stats().StoreHits, b.Stats().Captures)
	}
}

// TestIngestTornTailFailsSeal: a producer that dies mid-frame leaves a
// torn tail; Seal must fail hard and must not install anything.
func TestIngestTornTailFailsSeal(t *testing.T) {
	dir := t.TempDir()
	data, _ := encodeStream(t, emitN(20000, 64), false)

	e := New(1)
	e.SetStore(openStore(t, dir))
	s := e.NewIngest("torn", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data[:len(data)-75]); err != nil {
		t.Fatal(err)
	}
	_, err := s.Seal()
	if !errors.Is(err, ErrIngestBroken) || !errors.Is(err, trace.ErrBadTrace) {
		t.Fatalf("seal err = %v, want ErrIngestBroken wrapping ErrBadTrace", err)
	}
	if got := storeEntries(t, dir); len(got) != 0 {
		t.Fatalf("torn session installed store entries: %v", got)
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
// delivered, later bytes are refused, nothing installs.
func TestIngestMidStreamCorruption(t *testing.T) {
	dir := t.TempDir()
	data, _ := encodeStream(t, emitN(60000, 64), false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x01

	e := New(1)
	e.SetStore(openStore(t, dir))
	var rec trace.Recorder
	s := e.NewIngest("bad", IngestOptions{Sinks: []trace.Sink{&rec}})
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
	if got := storeEntries(t, dir); len(got) != 0 {
		t.Fatalf("broken session installed store entries: %v", got)
	}
}

// TestIngestEmptyStream: a header-only stream is a valid empty capture
// and seals cleanly.
func TestIngestEmptyStream(t *testing.T) {
	data, _ := encodeStream(t, func(trace.Sink) {}, false)
	e := New(1)
	s := e.NewIngest("empty", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data); err != nil {
		t.Fatal(err)
	}
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Events != 0 || !res.Adopted {
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
	s := e.NewIngest("snap", IngestOptions{
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

// TestIngestRetainOverflow: a stream outgrowing the retain limit still
// replays live but cannot be sealed into a warm entry.
func TestIngestRetainOverflow(t *testing.T) {
	dir := t.TempDir()
	data, events := encodeStream(t, emitN(30000, 64), false)
	e := New(1)
	e.SetStore(openStore(t, dir))
	var cnt trace.Counter
	s := e.NewIngest("big", IngestOptions{Sinks: []trace.Sink{&cnt}, RetainLimit: 1024})
	feedChunked(t, s, data, 35)
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if res.Retained || res.Adopted || res.Published {
		t.Fatalf("overflowed session sealed as warm: %+v", res)
	}
	if res.Stats.Events != events {
		t.Fatalf("overflowed session delivered %d of %d events", res.Stats.Events, events)
	}
	if got := storeEntries(t, dir); len(got) != 0 {
		t.Fatalf("overflowed session installed store entries: %v", got)
	}
}

// TestIngestFaultPoints drives each ingest.* injection point and checks
// the failure surfaces at the right edge with nothing installed.
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
		dir := t.TempDir()
		e := New(1)
		e.SetStore(openStore(t, dir))
		s := e.NewIngest("faulted", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
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
		if got := storeEntries(t, dir); len(got) != 0 {
			t.Fatalf("%s: faulted session installed store entries: %v", tc.point, got)
		}
	}
}

// TestIngestConcurrentWithReplayHammer is the -race audit of the rolling
// counters: a live ingest session, fused replays of other keys, and a
// stats reader all run concurrently against one engine.
func TestIngestConcurrentWithReplayHammer(t *testing.T) {
	data, events := encodeStream(t, emitN(40000, 64), true)
	dir := t.TempDir()
	e := New(4)
	e.SetStore(openStore(t, dir))

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
			_ = e.Stats().Captures + e.Stats().Replays + e.Stats().Recaptures + e.Stats().ReplayedEvents +
				e.Stats().StoreHits + e.Stats().StorePuts + e.Stats().DecodeOnceHits +
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
		s := e.NewIngest("hammer-live", IngestOptions{
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
