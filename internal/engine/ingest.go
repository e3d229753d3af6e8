package engine

import (
	"context"
	"fmt"
	"io"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Live trace ingestion. A workload run produces its stream inside an
// engine; Ingest takes one from outside: it pulls encoded v2 bytes from
// a reader while an external producer is still writing them (a socket,
// a pipe, a file tail), takes each frame out as soon as it is whole
// (trace.Reader.NextFrame) and hands it to the same guarded delivery a
// workload batch uses (deliver.go), so MEMO-TABLE banks simulate the
// workload while it is still running. Nothing of the stream is kept,
// and no engine is involved: an ingest's only state is how far it has
// read, which IngestStats reports.

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
// the source's own error for a failed read; an error wrapping
// ErrSinkPanic for a sink that panics; and an injected ingest or
// sink.emit fault's error. No panic escapes: any other panic on the way
// — an injected one in panic mode, say — comes back as an error that
// keeps an error-typed panic value as its cause. On failure the frames
// before the failure stay delivered and nothing of the failed frame is;
// the caller must discard the sinks' state.
func Ingest(src io.Reader, opts IngestOptions) (st IngestStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	r, err := trace.NewReader(&ingestSource{src: src, n: &st.Bytes})
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
		if _, err := deliver(context.TODO(), opts.Sinks, masks, evs); err != nil {
			return st, fmt.Errorf("frame delivery: %w", err)
		}
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
	return st, nil
}

// ingestSource is the ingest's view of its source: each read fires the
// ingest.feed fault point and is counted in the ingest's stats.
type ingestSource struct {
	src io.Reader
	n   *int64
}

func (s *ingestSource) Read(p []byte) (int, error) {
	if ferr := faults.Inject(faults.IngestFeed); ferr != nil {
		return 0, fmt.Errorf("feed rejected: %w", ferr)
	}
	n, err := s.src.Read(p)
	*s.n += int64(n)
	return n, err
}
