package engine

import (
	"context"
	"errors"
	"fmt"
	"io"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Live trace ingestion. A workload run produces its stream inside the
// engine; an IngestSession takes one from outside: an external producer
// pushes encoded v2 bytes as it generates them (over a socket, a pipe, a
// file tail), the session decodes complete frames incrementally
// (trace.StreamDecoder) and feeds each one through the same delivery
// loop a workload run uses (deliver.go), so MEMO-TABLE banks simulate
// the workload while it is still running. When the producer finishes,
// Seal verifies the stream ended at a clean frame boundary and ends the
// session. Nothing of the stream is kept.
//
// A session is single-producer: Feed, Seal and Abort must be called
// from one goroutine. What a session shares with the rest of the engine
// — the ingest and delivery counters — is safe against concurrent
// Replay/ReplayAll traffic and stat reads.

// ErrIngestBroken reports that an ingest session has failed — corrupt
// frame, injected fault, torn tail at seal — and will accept no more
// bytes. The sinks may have been partially fed; the caller must discard
// the session's cell.
var ErrIngestBroken = errors.New("engine: ingest session broken")

// IngestStats is a point-in-time view of a session's progress.
type IngestStats struct {
	Frames uint64 // complete frames delivered to the sinks
	Events uint64 // events delivered to the sinks
	Bytes  int64  // raw stream bytes fed so far
}

// IngestOptions configures a live ingest session.
type IngestOptions struct {
	// Sinks are fed as frames arrive. Frames are delivered in one fused
	// pass with per-frame class masks, exactly like ReplayAll's block
	// delivery: a sink whose advertised OpMask has no class in a frame
	// skips that frame.
	Sinks []trace.Sink

	// SnapshotEvery invokes OnSnapshot each time the delivered event
	// count crosses a multiple of this many events (0 disables).
	SnapshotEvery uint64

	// OnSnapshot receives rolling progress from inside Feed, on the
	// producer's goroutine, after the crossing frame has been delivered.
	OnSnapshot func(IngestStats)
}

// IngestResult reports a sealed session's final progress.
type IngestResult struct {
	Stats IngestStats
}

// IngestSession is one live stream being decoded and replayed.
// Construct with Engine.NewIngest.
type IngestSession struct {
	e     *Engine
	dec   *trace.StreamDecoder
	sinks []trace.Sink
	masks []trace.OpMask
	opts  IngestOptions

	nextSnap uint64
	sealed   bool
	err      error // latched first failure
}

// NewIngest opens a live ingest session feeding opts.Sinks.
func (e *Engine) NewIngest(opts IngestOptions) *IngestSession {
	s := &IngestSession{
		e:     e,
		dec:   trace.NewStreamDecoder(),
		sinks: opts.Sinks,
		opts:  opts,
	}
	s.masks = trace.SinkMasks(opts.Sinks)
	if opts.SnapshotEvery > 0 {
		s.nextSnap = opts.SnapshotEvery
	}
	// A closed engine accepts no new sessions: the failure is latched so
	// the first Feed or Seal reports it, same shape as any broken session.
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		_ = s.fail(ErrClosed)
	}
	return s
}

// Stats returns the session's current progress.
func (s *IngestSession) Stats() IngestStats {
	return IngestStats{Frames: s.dec.Frames(), Events: s.dec.Events(), Bytes: s.dec.BytesIn()}
}

// Err returns the session's latched failure, nil while healthy.
func (s *IngestSession) Err() error { return s.err }

// fail latches the session's first failure and returns it wrapped.
func (s *IngestSession) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %w", ErrIngestBroken, err)
	}
	return s.err
}

// Abort abandons the session: ErrIngestBroken is latched, so a later
// Feed or Seal fails. It does nothing once the session is sealed or
// broken, so it can be deferred.
func (s *IngestSession) Abort() {
	if !s.sealed {
		_ = s.fail(errors.New("aborted"))
	}
}

// Feed pushes arriving stream bytes and delivers every frame they
// complete to the sinks, in stream order. A healthy mid-frame tail is
// not an error — the bytes wait for the rest of their frame. Corruption
// (a frame failing its checksum, a bad stream header) and injected
// ingest faults break the session permanently: the error is latched,
// returned, and repeated by every later call.
func (s *IngestSession) Feed(p []byte) error {
	if s.err != nil {
		return s.err
	}
	if s.sealed {
		return s.fail(errors.New("feed after seal"))
	}
	if ferr := faults.Inject(faults.IngestFeed); ferr != nil {
		return s.fail(fmt.Errorf("feed rejected: %w", ferr))
	}
	s.e.ingestBytes.Add(uint64(len(p)))
	s.dec.Feed(p)
	return s.drain()
}

// drain delivers every currently complete frame. ErrStreamOpen
// is the healthy resting state between feeds; io.EOF is drain's clean
// end after CloseInput; anything else breaks the session.
func (s *IngestSession) drain() error {
	for {
		evs, err := s.dec.NextFrame()
		open := errors.Is(err, trace.ErrStreamOpen) || errors.Is(err, io.EOF)
		if err != nil && !open {
			return s.fail(err)
		}
		if open {
			return nil
		}
		if err := s.deliver(evs); err != nil {
			return err
		}
		if s.nextSnap > 0 && s.dec.Events() >= s.nextSnap {
			for s.nextSnap <= s.dec.Events() {
				s.nextSnap += s.opts.SnapshotEvery
			}
			if s.opts.OnSnapshot != nil {
				s.opts.OnSnapshot(s.Stats())
			}
		}
	}
}

// deliver feeds one decoded frame to the sinks through the engine's
// delivery loop, which skips sinks whose class mask misses every event
// in the frame. Delivery is done when it returns, before the stream
// decoder reuses the frame buffer and before OnSnapshot runs.
func (s *IngestSession) deliver(evs []trace.Event) error {
	if ferr := faults.Inject(faults.IngestFrame); ferr != nil {
		return s.fail(fmt.Errorf("frame delivery: %w", ferr))
	}
	if err := s.e.deliver(context.TODO(), s.sinks, s.masks, evs, batchMask(evs)); err != nil {
		return s.fail(fmt.Errorf("frame delivery: %w", err))
	}
	s.e.ingestFrames.Add(1)
	s.e.ingestEvents.Add(uint64(len(evs)))
	return nil
}

// Seal declares the stream finished: the remaining buffered frames are
// delivered, and the stream must end at a clean frame boundary (a torn
// tail is corruption here, exactly as a torn file would be). A second
// Seal, or a Seal on a broken session, fails.
func (s *IngestSession) Seal() (IngestResult, error) {
	if s.err != nil {
		return IngestResult{Stats: s.Stats()}, s.err
	}
	if s.sealed {
		return IngestResult{Stats: s.Stats()}, s.fail(errors.New("double seal"))
	}
	s.sealed = true
	s.dec.CloseInput()
	// With the input closed, drain runs to a clean io.EOF or fails on a
	// torn/corrupt tail — ErrStreamOpen can no longer occur.
	if err := s.drain(); err != nil {
		return IngestResult{Stats: s.Stats()}, err
	}
	res := IngestResult{Stats: s.Stats()}
	if ferr := faults.Inject(faults.IngestSeal); ferr != nil {
		return res, s.fail(fmt.Errorf("seal rejected: %w", ferr))
	}
	s.e.sealedIngests.Add(1)
	return res, nil
}
