package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// The engine keeps no trace on disk: SetTraceDir does nothing, and every
// replay runs its workload. These tests set a trace dir (and, where
// named, a store) the way a disk-tier configuration once did and check
// that runs neither depend on nor touch what lies there.

// TestTornSpillFileRecapturedTransparently truncates the key's trace
// file mid-frame: every replay runs the workload again and delivers the
// full stream, whatever the file holds.
func TestTornSpillFileRecapturedTransparently(t *testing.T) {
	runsPastDamagedTrace(t, func(path string, data []byte) error {
		return os.Truncate(path, int64(len(data)/3))
	})
}

// TestCorruptSpillFileDetectedByCRC flips one payload byte — the file
// keeps its length, only the checksum can catch it.
func TestCorruptSpillFileDetectedByCRC(t *testing.T) {
	runsPastDamagedTrace(t, func(path string, data []byte) error {
		data[len(data)/2] ^= 0x20
		return os.WriteFile(path, data, 0o644)
	})
}

// runsPastDamagedTrace writes the key's encoded stream into the trace
// dir, or as an entry of an attached store, and damages it. The damage
// must be caught by the format's checksums, and three replays must each
// run the workload and deliver the full stream while the damaged file
// stays as it was left.
func runsPastDamagedTrace(t *testing.T, damage func(path string, data []byte) error) {
	const events = 30000
	for _, persistent := range []bool{false, true} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			e := Serial()
			defer e.Close()
			traceDir := t.TempDir()
			e.SetTraceDir(traceDir)
			path := filepath.Join(traceDir, "t-big.mtrc")
			data, _ := encodeStream(t, emitN(events, 128), false)
			if persistent {
				storeDir := t.TempDir()
				path = seedStore(t, storeDir, "big", emitN(events, 128))
				e.SetStore(openStore(t, storeDir))
			} else if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := damage(path, raw); err != nil {
				t.Fatal(err)
			}
			damaged, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if persistent {
				err = tracestore.ReadEntry(path, func([]byte, uint64) error { return nil })
			} else {
				_, err = trace.VerifyBytes(damaged)
			}
			if err == nil {
				t.Fatal("the damaged trace passed its checksums")
			}

			var execs atomic.Int64
			for i := 0; i < 3; i++ {
				var c trace.Counter
				if n, err := e.Replay("big", countingCapture(&execs, events, 128), &c); err != nil || n != events || c.Total() != events {
					t.Fatalf("replay %d: n=%d, sink saw %d, err=%v", i, n, c.Total(), err)
				}
			}
			if s := e.Stats(); execs.Load() != 3 || s.Captures != 3 || s.Recaptures != 0 || s.SpilledTraces != 0 {
				t.Fatalf("execs=%d captures=%d recaptures=%d spilled=%d, want 3, 3, 0 and 0",
					execs.Load(), s.Captures, s.Recaptures, s.SpilledTraces)
			}
			if now, err := os.ReadFile(path); err != nil || string(now) != string(damaged) {
				t.Fatalf("the damaged trace changed (%v)", err)
			}
		})
	}
}

// TestEnginesSharingTraceDirKeepTheirOverflow: two engines share a trace
// dir, and one closes while the other is mid-run. The run finishes on
// its first try with the full stream, the survivor takes new work, and
// neither engine leaves anything in the dir.
func TestEnginesSharingTraceDirKeepTheirOverflow(t *testing.T) {
	dir := t.TempDir()
	a, b := Serial(), Serial()
	for _, e := range []*Engine{a, b} {
		e.SetTraceDir(dir)
	}
	defer b.Close()
	if _, err := a.Replay("a", emitN(20000, 64), &trace.Counter{}); err != nil {
		t.Fatal(err)
	}

	midStream := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	capture := func(s trace.Sink) {
		emitN(100000, 512)(s) // several batches already delivered
		once.Do(func() {
			close(midStream)
			<-release
		})
		emitN(100000, 256)(s)
	}
	type result struct {
		n   uint64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := b.Replay("b", capture, &trace.Counter{})
		done <- result{n, err}
	}()
	<-midStream
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if r := <-done; r.err != nil || r.n != 200000 {
		t.Fatalf("run across the other engine's Close: n=%d err=%v", r.n, r.err)
	}
	if s := b.Stats(); s.Captures != 1 || s.Replays != 1 || s.SpillRetries != 0 {
		t.Fatalf("captures=%d replays=%d spill retries=%d, want 1, 1 and 0", s.Captures, s.Replays, s.SpillRetries)
	}
	if n, err := b.Replay("c", emitN(100, 16), &trace.Counter{}); err != nil || n != 100 {
		t.Fatalf("survivor after the other engine's Close: n=%d err=%v", n, err)
	}
	if left := dirFiles(t, dir); len(left) != 0 {
		t.Fatalf("the engines left %d files in the trace dir", len(left))
	}
}

// TestSpillReplayMatchesMemoryReplay pins byte-faithfulness across
// configurations: an engine with a trace dir and a store set delivers
// the identical event stream a bare engine does, and writes nothing to
// either.
func TestSpillReplayMatchesMemoryReplay(t *testing.T) {
	capture := emitN(20000, 96)

	mem := Serial()
	var fromMem trace.Recorder
	if _, err := mem.Replay("k", capture, &fromMem); err != nil {
		t.Fatal(err)
	}

	traceDir, storeDir := t.TempDir(), t.TempDir()
	disk := Serial()
	disk.SetTraceDir(traceDir)
	disk.SetStore(openStore(t, storeDir))
	var fromDisk trace.Recorder
	if _, err := disk.Replay("k", capture, &fromDisk); err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "trace-dir engine against bare engine", fromDisk.Events, fromMem.Events)
	for _, dir := range []string{traceDir, storeDir} {
		if left := dirFiles(t, dir); len(left) != 0 {
			t.Fatalf("the engine wrote %d files to %s", len(left), dir)
		}
	}
}
