package engine

import (
	"context"
	"errors"
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
	sess := e.NewIngest("live", IngestOptions{})
	err := sess.Feed([]byte{0})
	if !errors.Is(err, ErrClosed) || !errors.Is(err, ErrIngestBroken) {
		t.Fatalf("ingest Feed after Close: %v, want ErrClosed and ErrIngestBroken", err)
	}
}

// TestCloseWaitsForInflight: Close must not remove the scratch store
// under a pass still replaying — it blocks until in-flight work drains.
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
	if st.Captures != 1 || st.Replays != 3 {
		t.Fatalf("snapshot captures/replays %d/%d, want 1/3", st.Captures, st.Replays)
	}
	mem := e.TierStats()[0]
	if mem.Name != "memory" || st.CachedTraces != mem.Entries || st.CachedBytes != mem.Bytes {
		t.Fatalf("snapshot cache shape %d/%d, memory tier %+v", st.CachedTraces, st.CachedBytes, mem)
	}
	if st.Workers != e.Workers() {
		t.Fatalf("snapshot workers %d, getter %d", st.Workers, e.Workers())
	}
	if st.BudgetLimit != e.Budget().Limit() || st.BudgetUsed <= 0 {
		t.Fatalf("snapshot budget %d/%d inconsistent with root budget %d/%d",
			st.BudgetLimit, st.BudgetUsed, e.Budget().Limit(), e.Budget().Used())
	}
}

func TestTiersAccountTheCache(t *testing.T) {
	e := New(1)
	defer e.Close()
	var cnt trace.Counter
	if _, err := e.ReplayAll("k", emitN(1000, 64), []trace.Sink{&cnt}); err != nil {
		t.Fatal(err)
	}
	byName := map[string]TierStats{}
	for _, ts := range e.TierStats() {
		byName[ts.Name] = ts
	}
	mem, ok := byName["memory"]
	if !ok || mem.Entries != 1 || mem.Bytes != e.Stats().CachedBytes {
		t.Fatalf("memory tier %+v, want 1 entry of %d bytes", mem, e.Stats().CachedBytes)
	}
	// One replay decodes from the bytes and leaves no blocks; the
	// second builds them.
	if blocks := byName["blocks"]; blocks.Entries != 0 || blocks.Bytes != 0 {
		t.Fatalf("blocks tier %+v after one replay, want empty", blocks)
	}
	if _, err := e.ReplayAll("k", emitN(1000, 64), []trace.Sink{&cnt}); err != nil {
		t.Fatal(err)
	}
	blocks := e.TierStats()[1]
	if blocks.Name != "blocks" || blocks.Entries != 1 || blocks.Bytes != 1000*bytesPerEvent ||
		blocks.Bytes != e.Stats().DecodedBlockBytes {
		t.Fatalf("blocks tier %+v after two replays, want 1 entry of %d bytes", blocks, 1000*bytesPerEvent)
	}
	if spill := byName["spill"]; spill.Entries != 0 || spill.Bytes != 0 {
		t.Fatalf("spill tier %+v, want empty", spill)
	}
	if _, ok := byName["store"]; ok {
		t.Fatal("store tier listed with no store attached")
	}
}
