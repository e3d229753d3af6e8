package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"memotable/internal/trace"
)

func TestCloseIdempotent(t *testing.T) {
	e := New(1)
	if err := e.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClosedEngineRefusesWork(t *testing.T) {
	e := New(1)
	var cnt trace.Counter
	if _, err := e.ReplayAll("k", emitN(100, 16), []trace.Sink{&cnt}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if err := e.Warm("k2", emitN(100, 16)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Warm after Close: %v, want ErrClosed", err)
	}
	if _, err := e.ReplayAll("k", emitN(100, 16), []trace.Sink{&cnt}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReplayAll after Close: %v, want ErrClosed", err)
	}
	if _, err := e.RunPassContext(context.Background(), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunPassContext after Close: %v, want ErrClosed", err)
	}
	sess := e.NewIngest(IngestOptions{})
	err := sess.Feed([]byte{0})
	if !errors.Is(err, ErrClosed) || !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("ingest Feed after Close: %v, want ErrClosed and ErrIngestBroken", err)
	}
}

// TestCloseWaitsForInflight: Close must not return while a run is still
// feeding its sinks — it blocks until in-flight work drains.
func TestCloseWaitsForInflight(t *testing.T) {
	e := New(2)
	started := make(chan struct{})
	release := make(chan struct{})
	capture := func(s trace.Sink) {
		close(started)
		<-release
		emitN(100, 16)(s)
	}

	replayDone := make(chan error, 1)
	go func() {
		var cnt trace.Counter
		_, err := e.ReplayAll("slow", capture, []trace.Sink{&cnt})
		replayDone <- err
	}()
	<-started

	closeDone := make(chan error, 1)
	go func() { closeDone <- e.Close() }()

	select {
	case err := <-closeDone:
		t.Fatalf("Close returned (%v) while a replay was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-replayDone; err != nil {
		t.Fatalf("in-flight replay: %v", err)
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close after drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after in-flight work drained")
	}
}

func TestStatsSnapshotMatchesGetters(t *testing.T) {
	e := New(2)
	defer e.Close()
	var cnt trace.Counter
	for i := 0; i < 3; i++ {
		if _, err := e.ReplayAll("k", emitN(1000, 64), []trace.Sink{&cnt}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.Captures != 3 || st.Replays != 3 || st.ReplayedEvents != 3000 || st.DeliveredEvents != cnt.Total() {
		t.Fatalf("snapshot captures/replays/events/delivered %d/%d/%d/%d, want 3/3/3000/%d",
			st.Captures, st.Replays, st.ReplayedEvents, st.DeliveredEvents, cnt.Total())
	}
	if st.Workers != e.Workers() {
		t.Fatalf("snapshot workers %d, getter %d", st.Workers, e.Workers())
	}
	if got := e.TraceFingerprints(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("fingerprints %v, want [k]", got)
	}
}

// TestCloseRemovesScratchStoreOnly: the engine makes no scratch store,
// so Close removes nothing: the trace dir and an attached store keep
// exactly the files they held before the engine ran.
func TestCloseRemovesScratchStoreOnly(t *testing.T) {
	traceDir, storeDir := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(traceDir, "notes.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	seedStore(t, storeDir, "w", emitN(5000, 32))
	beforeTrace, beforeStore := dirFiles(t, traceDir), dirFiles(t, storeDir)

	e := New(1)
	e.SetTraceDir(traceDir)
	e.SetStore(openStore(t, storeDir))
	if err := e.Warm("w", emitN(5000, 32)); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Replay("w", emitN(5000, 32), &trace.Counter{}); err != nil || n != 5000 {
		t.Fatalf("replay: n=%d err=%v", n, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, "trace dir after Close", traceDir, beforeTrace)
	sameFiles(t, "store after Close", storeDir, beforeStore)
}
