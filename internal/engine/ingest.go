package engine

import (
	"context"
	"errors"
	"fmt"
	"io"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Live trace ingestion. The capture/replay pipeline above assumes the
// whole operand stream exists before the first sink sees an event — the
// engine runs the workload, the encoding settles into a tier, replays
// feed it to the sinks. An IngestSession inverts that: an external
// producer pushes encoded v2 bytes as it generates them (over a socket,
// a pipe, a file tail), the session decodes complete frames incrementally
// (trace.StreamDecoder) and feeds each one through the same delivery
// loop a ReplayAll uses (deliver.go), so MEMO-TABLE banks simulate the
// workload while it is still running. When the producer finishes, Seal
// verifies the stream ended at a clean frame boundary and settles the
// accumulated bytes exactly where a local capture would have gone: the
// engine's memory tier and the persistent trace store, so the live
// session becomes a warm cache entry for every later run.
//
// A session is single-producer: Feed and Seal must be called from one
// goroutine. Everything a session shares with the rest of the engine —
// the ingest counters, cache adoption, the store publish — is safe
// against concurrent Replay/ReplayAll traffic and stat reads.

// ErrIngestBroken reports that an ingest session has failed — corrupt
// frame, injected fault, torn tail at seal — and will accept no more
// bytes. The sinks may have been partially fed; the caller must discard
// the session's cell.
var ErrIngestBroken = errors.New("engine: ingest session broken")

// DefaultIngestRetain bounds how many raw stream bytes a session retains
// for sealing when the caller does not say: the engine's default cache
// budget, since a stream that outgrows it could not be adopted anyway.
const DefaultIngestRetain = DefaultCacheBytes

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

	// RetainLimit bounds the raw bytes kept for Seal to settle into the
	// cache and store (<= 0 selects DefaultIngestRetain). A stream that
	// outgrows the limit still replays live — the session just cannot be
	// sealed into a warm entry, which Seal reports via Retained=false.
	RetainLimit int64
}

// IngestResult reports what Seal settled.
type IngestResult struct {
	Stats IngestStats
	// Retained reports whether the full raw stream was held within the
	// retain limit (the precondition for adoption and publish).
	Retained bool
	// Adopted reports whether the stream settled into the engine's
	// memory tier under the session key.
	Adopted bool
	// Published reports whether the stream was installed in the
	// persistent trace store under the session key.
	Published bool
}

// IngestSession is one live stream being decoded, replayed, and
// accumulated for sealing. Construct with Engine.NewIngest.
type IngestSession struct {
	e     *Engine
	key   string
	dec   *trace.StreamDecoder
	sinks []trace.Sink
	masks []trace.OpMask
	opts  IngestOptions

	raw      []byte // retained stream bytes, nil after overflow
	overflow bool
	nextSnap uint64
	sealed   bool
	err      error // latched first failure
}

// NewIngest opens a live ingest session for a workload key. The key
// plays the same role as a Replay key: it is the fingerprint under
// which Seal settles the stream into the cache and the persistent
// store, so a later Replay(key, ...) — in this process or any other
// sharing the store — is a hit instead of a capture.
func (e *Engine) NewIngest(key string, opts IngestOptions) *IngestSession {
	if opts.RetainLimit <= 0 {
		opts.RetainLimit = DefaultIngestRetain
	}
	s := &IngestSession{
		e:     e,
		key:   key,
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
	if e.closed {
		s.err = fmt.Errorf("%w: %w", ErrIngestBroken, ErrClosed)
	}
	e.mu.Unlock()
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
	if !s.overflow {
		if int64(len(s.raw))+int64(len(p)) > s.opts.RetainLimit {
			s.raw, s.overflow = nil, true
		} else {
			s.raw = append(s.raw, p...)
		}
	}
	s.e.ingestBytes.Add(uint64(len(p)))
	s.dec.Feed(p)
	return s.drain()
}

// drain delivers every currently complete frame. ErrStreamOpen is the
// healthy resting state between feeds; io.EOF is drain's clean end after
// CloseInput; anything else breaks the session.
func (s *IngestSession) drain() error {
	for {
		evs, err := s.dec.NextFrame()
		if errors.Is(err, trace.ErrStreamOpen) || errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return s.fail(err)
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
// delivered, the stream must end at a clean frame boundary (a torn tail
// is corruption here, exactly as a torn file would be), and the
// accumulated bytes settle where a local capture's would — the memory
// tier, budget permitting, and the persistent store when one is
// attached. Store and adoption failures do not fail the seal (the store
// is an accelerator, same contract as putToStore); what settled is
// reported in the result. A second Seal, or a Seal on a broken session,
// fails.
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
	res := IngestResult{Stats: s.Stats(), Retained: !s.overflow}
	if ferr := faults.Inject(faults.IngestSeal); ferr != nil {
		return res, s.fail(fmt.Errorf("seal rejected: %w", ferr))
	}
	s.e.sealedIngests.Add(1)
	if !res.Retained {
		return res, nil
	}
	res.Adopted = s.e.adoptIngest(s.key, s.raw, s.dec.Events())
	res.Published = s.e.publishIngest(s.key, s.raw)
	return res, nil
}

// adoptIngest settles a sealed stream into the engine's memory tier
// under key, the same way loadFromStore adopts a store hit: only into
// an empty slot (an in-flight or settled entry must not be shadowed)
// and only when the byte budget covers the stream.
func (e *Engine) adoptIngest(key string, data []byte, events uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	ent, ok := e.traces[key]
	if !ok {
		ent = &traceEntry{key: key}
		e.traces[key] = ent
	}
	if ent.state != stateEmpty && ent.state != stateDeclined {
		return false
	}
	n := int64(len(data))
	if !e.budget.Reserve(n) {
		return false
	}
	e.budget.Commit(n, n)
	e.memBytes += n
	ent.data = [][]byte{data}
	ent.events = events
	ent.state = stateMemory
	ent.path = ""
	e.cond.Broadcast()
	return true
}

// publishIngest installs a sealed stream in the persistent store under
// key. Failures are dropped, same contract as putToStore: the store is
// an accelerator, and the next cold run's capture heals it.
func (e *Engine) publishIngest(key string, data []byte) bool {
	e.mu.Lock()
	st := e.tstore
	e.mu.Unlock()
	if st == nil {
		return false
	}
	if err := st.Put(key, data); err != nil {
		return false
	}
	e.storePuts.Add(1)
	return true
}
