package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
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
	if !res.Adopted || !res.Published {
		t.Fatalf("seal result %+v, want adopted+published", res)
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

// tempFiles lists the unsealed entry files left in a store directory.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// scratchStores lists the scratch stores engines made under dir.
func scratchStores(t *testing.T, dir string) []string {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(dir, "memotable-traces-*"))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestIngestReservesBudgetMidStream: the bytes a session has landed but
// not sealed are reserved in the root budget as they arrive, used +
// reserved never exceeds the limit, and Seal turns the reservation into
// the entry's used bytes.
func TestIngestReservesBudgetMidStream(t *testing.T) {
	data, _ := encodeStream(t, emitN(60000, 64), false)
	e := New(1)
	defer e.Close()
	limit := int64(len(data)) + 4096
	e.SetCacheLimit(limit)
	s := e.NewIngest("budgeted", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	rng := rand.New(rand.NewSource(41))
	for off := 0; off < len(data); {
		n := min(1+rng.Intn(16<<10), len(data)-off)
		if err := s.Feed(data[off : off+n]); err != nil {
			t.Fatal(err)
		}
		off += n
		st := e.Stats()
		if landed := int64(off - s.dec.Buffered()); st.BudgetReserved != landed {
			t.Fatalf("at offset %d: reserved %d, want the %d landed bytes", off, st.BudgetReserved, landed)
		}
		if st.BudgetUsed+st.BudgetReserved > limit {
			t.Fatalf("at offset %d: used %d + reserved %d exceeds limit %d", off, st.BudgetUsed, st.BudgetReserved, limit)
		}
	}
	if _, err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.BudgetReserved != 0 || st.BudgetUsed != int64(len(data)) || st.CachedTraces != 1 {
		t.Fatalf("after seal: reserved %d used %d cached %d, want 0/%d/1",
			st.BudgetReserved, st.BudgetUsed, st.CachedTraces, len(data))
	}
}

// TestIngestOverflowSealsIntoStore: a stream larger than the cache limit
// overflows into its persistent store entry as it arrives, and Seal
// commits that entry — byte-identical to the stream — as the key's
// disk-tier entry, so this engine and a cold one on the store both
// replay it without capturing.
func TestIngestOverflowSealsIntoStore(t *testing.T) {
	dir := t.TempDir()
	capture := emitN(30000, 64)
	data, events := encodeStream(t, capture, false)
	e := New(1)
	defer e.Close()
	e.SetCacheLimit(1024)
	e.SetStore(openStore(t, dir))
	s := e.NewIngest("big", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	feedChunked(t, s, data, 35)
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Adopted || !res.Published || res.Stats.Events != events {
		t.Fatalf("seal result %+v, want adopted+published with %d events", res, events)
	}
	entries := storeEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("store entries %v, want one", entries)
	}
	onDisk, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(data)+16 || !bytes.Equal(onDisk[:len(data)], data) {
		t.Fatalf("store entry is %d bytes, not the %d-byte stream plus its seal", len(onDisk), len(data))
	}
	if st := e.Stats(); st.SpilledTraces != 1 || st.BudgetReserved != 0 || st.StorePuts != 1 {
		t.Fatalf("spilled %d reserved %d puts %d, want 1/0/1", st.SpilledTraces, st.BudgetReserved, st.StorePuts)
	}

	mustNotRun := func(trace.Sink) { t.Error("workload executed despite the sealed ingest entry") }
	if n, err := e.Replay("big", mustNotRun, &trace.Counter{}); err != nil || n != events {
		t.Fatalf("replay after seal: n=%d err=%v", n, err)
	}
	cold := New(1)
	defer cold.Close()
	cold.SetStore(openStore(t, dir))
	if n, err := cold.Replay("big", mustNotRun, &trace.Counter{}); err != nil || n != events {
		t.Fatalf("cold replay: n=%d err=%v", n, err)
	}
	if e.Stats().Captures != 0 || cold.Stats().Captures != 0 || cold.Stats().StoreHits != 1 {
		t.Fatalf("captures %d/%d, cold store hits %d; want 0/0/1",
			e.Stats().Captures, cold.Stats().Captures, cold.Stats().StoreHits)
	}
}

// TestIngestOverflowSettlesInScratchStore: with no persistent store, an
// overflowing stream settles in the engine's scratch store, replays
// without capturing, and goes with the scratch store at Close.
func TestIngestOverflowSettlesInScratchStore(t *testing.T) {
	traceDir := t.TempDir()
	capture := emitN(30000, 64)
	data, events := encodeStream(t, capture, false)
	e := New(1)
	e.SetCacheLimit(1024)
	e.SetTraceDir(traceDir)
	s := e.NewIngest("big", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	feedChunked(t, s, data, 36)
	res, err := s.Seal()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if n, err := e.Replay("big", capture, &rec); err != nil || n != events {
		t.Fatalf("replay after seal: n=%d err=%v", n, err)
	}
	if st := e.Stats(); st.Captures != 0 || st.SpilledTraces != 1 {
		t.Fatalf("captures %d spilled %d, want 0/1", st.Captures, st.SpilledTraces)
	}
	if !res.Adopted || res.Published {
		t.Fatalf("seal result %+v, want adopted, not published", res)
	}
	if got := scratchStores(t, traceDir); len(got) != 1 {
		t.Fatalf("scratch stores %v, want one", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := scratchStores(t, traceDir); len(got) != 0 {
		t.Fatalf("Close left scratch stores %v", got)
	}
}

// TestIngestBrokenAfterOverflowLeavesNothing: a session that has
// overflowed into its store entry and then breaks — on a corrupt frame
// or an injected frame fault — aborts that entry at once: no entry, no
// temp file, and no reservation survive it.
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
			dir := t.TempDir()
			e := New(1)
			defer e.Close()
			e.SetCacheLimit(1024)
			e.SetStore(openStore(t, dir))
			s := e.NewIngest("broken", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
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
			if s.arm == nil || s.arm.mem || len(tempFiles(t, dir)) != 1 {
				t.Fatalf("session did not overflow into a store entry by mid-stream")
			}
			if err := s.Feed(tc.stream[half:]); !errors.Is(err, ErrIngestBroken) || !errors.Is(err, tc.want) {
				t.Fatalf("feed err = %v, want ErrIngestBroken wrapping %v", err, tc.want)
			}
			if _, err := s.Seal(); !errors.Is(err, ErrIngestBroken) {
				t.Fatalf("seal on broken session err = %v", err)
			}
			if got := append(storeEntries(t, dir), tempFiles(t, dir)...); len(got) != 0 {
				t.Fatalf("broken session left store files %v", got)
			}
			if st := e.Stats(); st.BudgetReserved != 0 || len(e.TraceFingerprints()) != 0 {
				t.Fatalf("broken session left reserved %d, entries %v", st.BudgetReserved, e.TraceFingerprints())
			}
		})
	}
}

// TestIngestAbortLeavesNothing: a session that overflowed into its
// persistent store entry and is then abandoned — the producer's read
// failed — and aborted leaves no temp file and no reservation, and a
// later Feed or Seal reports ErrIngestBroken. Abort after a Seal leaves
// the sealed entry alone.
func TestIngestAbortLeavesNothing(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	dir := t.TempDir()
	e := New(1)
	defer e.Close()
	e.SetCacheLimit(1024)
	e.SetStore(openStore(t, dir))
	s := e.NewIngest("abandoned", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	if err := s.Feed(data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if s.arm == nil || s.arm.mem || len(tempFiles(t, dir)) != 1 {
		t.Fatal("session did not overflow into a store entry by mid-stream")
	}
	s.Abort()
	if got := append(storeEntries(t, dir), tempFiles(t, dir)...); len(got) != 0 {
		t.Fatalf("aborted session left store files %v", got)
	}
	if st := e.Stats(); st.BudgetReserved != 0 || st.BudgetUsed != 0 || len(e.TraceFingerprints()) != 0 {
		t.Fatalf("aborted session left reserved %d, used %d, entries %v",
			st.BudgetReserved, st.BudgetUsed, e.TraceFingerprints())
	}
	if err := s.Feed(data[len(data)/2:]); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("feed after abort err = %v, want ErrIngestBroken", err)
	}
	if _, err := s.Seal(); !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("seal after abort err = %v, want ErrIngestBroken", err)
	}

	sealed := e.NewIngest("sealed", IngestOptions{Sinks: []trace.Sink{&trace.Counter{}}})
	feedChunked(t, sealed, data, 37)
	if _, err := sealed.Seal(); err != nil {
		t.Fatal(err)
	}
	sealed.Abort()
	if sealed.Err() != nil || len(storeEntries(t, dir)) != 1 {
		t.Fatalf("abort after seal: err %v, store entries %v", sealed.Err(), storeEntries(t, dir))
	}
	if n, err := e.Replay("sealed", func(trace.Sink) { t.Error("sealed stream re-executed") }, &trace.Counter{}); err != nil || n != events {
		t.Fatalf("replay after abort-after-seal: n=%d err=%v", n, err)
	}
}

// TestIngestOverflowFailureStillDelivers: a session whose stream cannot
// overflow — its store entry keeps failing to write, or the engine
// closed before the budget ran out — discards its arm and keeps
// delivering. Seal succeeds and settles nothing, and no scratch store is
// made.
func TestIngestOverflowFailureStillDelivers(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	check := func(t *testing.T, e *Engine, s *IngestSession, cnt *trace.Counter) {
		t.Helper()
		res, err := s.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if res.Adopted || res.Published {
			t.Fatalf("seal result %+v, want neither adopted nor published", res)
		}
		if res.Stats.Events != events || cnt.Total() != events {
			t.Fatalf("delivered %d (sink %d) of %d events", res.Stats.Events, cnt.Total(), events)
		}
		if st := e.Stats(); st.BudgetReserved != 0 || len(e.TraceFingerprints()) != 0 {
			t.Fatalf("reserved %d, entries %v after a failed overflow", st.BudgetReserved, e.TraceFingerprints())
		}
	}

	t.Run("store.write fault", func(t *testing.T) {
		dir := t.TempDir()
		e := New(1)
		defer e.Close()
		e.SetCacheLimit(1024)
		e.SetStore(openStore(t, dir))
		withFaults(t, "store.write")
		var cnt trace.Counter
		s := e.NewIngest("faulted", IngestOptions{Sinks: []trace.Sink{&cnt}})
		feedChunked(t, s, data, 38)
		check(t, e, s, &cnt)
		if got := append(storeEntries(t, dir), tempFiles(t, dir)...); len(got) != 0 {
			t.Fatalf("failed overflow left store files %v", got)
		}
	})

	t.Run("closed before overflow", func(t *testing.T) {
		traceDir := t.TempDir()
		e := New(1)
		e.SetCacheLimit(int64(len(data)) / 2)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		s := e.NewIngest("closed", IngestOptions{Sinks: []trace.Sink{&cnt}})
		quarter := len(data) / 4
		if err := s.Feed(data[:quarter]); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.overflowStore(); !errors.Is(err, ErrClosed) {
			t.Fatalf("overflowStore after Close err = %v, want ErrClosed", err)
		}
		if err := s.Feed(data[quarter:]); err != nil {
			t.Fatal(err)
		}
		check(t, e, s, &cnt)
		if got := scratchStores(t, traceDir); len(got) != 0 {
			t.Fatalf("closed engine made scratch stores %v", got)
		}
	})
}

// TestIngestOverflowRacesClose: Close racing a session that overflows
// into the scratch store — mid-stream, mid-seal or after — never leaves
// the scratch store or a reservation behind, and the session delivers
// every event whichever side wins.
func TestIngestOverflowRacesClose(t *testing.T) {
	data, events := encodeStream(t, emitN(60000, 64), false)
	for i := 0; i < 8; i++ {
		traceDir := t.TempDir()
		e := New(1)
		e.SetCacheLimit(1024)
		e.SetTraceDir(traceDir)
		var cnt trace.Counter
		s := e.NewIngest("racing", IngestOptions{Sinks: []trace.Sink{&cnt}})
		closed := make(chan error, 1)
		go func() { closed <- e.Close() }()
		feedChunked(t, s, data, int64(i))
		if _, err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if cnt.Total() != events {
			t.Fatalf("run %d: delivered %d of %d events", i, cnt.Total(), events)
		}
		if got := scratchStores(t, traceDir); len(got) != 0 || e.Stats().BudgetReserved != 0 {
			t.Fatalf("run %d: scratch stores %v, reserved %d after Close", i, got, e.Stats().BudgetReserved)
		}
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
