package engine

import (
	"context"
	"fmt"
	"io"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Live trace ingestion. A workload run produces its stream inside the
// engine; Ingest takes one from outside: it pulls encoded v2 bytes from
// a reader while an external producer is still writing them (a socket,
// a pipe, a file tail), takes each frame out as soon as it is whole
// (trace.Reader.NextFrame) and feeds it through the same delivery loop
// a workload run uses (deliver.go), so MEMO-TABLE banks simulate the
// workload while it is still running. Nothing of the stream is kept.
//
// What an ingest shares with the rest of the engine — the ingest and
// delivery counters — is safe against concurrent Replay/ReplayAll
// traffic and stat reads.

// IngestStats is a point-in-time view of an ingest's progress.
type IngestStats struct {
	Frames uint64 // complete frames delivered to the sinks
	Events uint64 // events delivered to the sinks
	Bytes  int64  // raw stream bytes read so far
}

// IngestOptions configures a live ingest.
type IngestOptions struct {
	// Sinks are fed as frames arrive. Frames are delivered in one fused
	// pass with per-frame class masks, exactly like ReplayAll's block
	// delivery: a sink whose advertised OpMask has no class in a frame
	// skips that frame.
	Sinks []trace.Sink

	// SnapshotEvery invokes OnSnapshot each time the delivered event
	// count crosses a multiple of this many events (0 disables).
	SnapshotEvery uint64

	// OnSnapshot receives rolling progress on Ingest's goroutine, after
	// the crossing frame has been delivered.
	OnSnapshot func(IngestStats)
}

// Ingest reads a v2 trace stream from src to its end, delivering each
// frame to opts.Sinks, in stream order, as soon as the frame is whole.
// It returns nil when src ends at a clean frame boundary; ErrBadTrace
// for a torn tail, a corrupt frame or a v1 stream, which has no frames;
// the source's own error for a failed read; ErrClosed on a closed
// engine; and an injected ingest fault's error. On failure the frames
// before the failure stay delivered and nothing of the failed frame is;
// the caller must discard the sinks' state. A Close that lands while
// Ingest runs does not stop it.
func (e *Engine) Ingest(src io.Reader, opts IngestOptions) (IngestStats, error) {
	var st IngestStats
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return st, ErrClosed
	}
	r, err := trace.NewReader(&ingestSource{src: src, e: e, n: &st.Bytes})
	if err != nil {
		return st, err
	}
	masks := trace.SinkMasks(opts.Sinks)
	nextSnap := opts.SnapshotEvery
	for {
		evs, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return st, err
		}
		if ferr := faults.Inject(faults.IngestFrame); ferr != nil {
			return st, fmt.Errorf("frame delivery: %w", ferr)
		}
		if err := e.deliver(context.TODO(), opts.Sinks, masks, evs, batchMask(evs)); err != nil {
			return st, fmt.Errorf("frame delivery: %w", err)
		}
		e.ingestFrames.Add(1)
		e.ingestEvents.Add(uint64(len(evs)))
		st.Frames++
		st.Events += uint64(len(evs))
		if nextSnap > 0 && st.Events >= nextSnap {
			for nextSnap <= st.Events {
				nextSnap += opts.SnapshotEvery
			}
			if opts.OnSnapshot != nil {
				opts.OnSnapshot(st)
			}
		}
	}
	if ferr := faults.Inject(faults.IngestSeal); ferr != nil {
		return st, fmt.Errorf("seal rejected: %w", ferr)
	}
	e.sealedIngests.Add(1)
	return st, nil
}

// ingestSource is the ingest's view of its source: each read fires the
// ingest.feed fault point and is counted in the ingest's stats and the
// engine's byte counter.
type ingestSource struct {
	src io.Reader
	e   *Engine
	n   *int64
}

func (s *ingestSource) Read(p []byte) (int, error) {
	if ferr := faults.Inject(faults.IngestFeed); ferr != nil {
		return 0, fmt.Errorf("feed rejected: %w", ferr)
	}
	n, err := s.src.Read(p)
	*s.n += int64(n)
	s.e.ingestBytes.Add(uint64(n))
	return n, err
}
