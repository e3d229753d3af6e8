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
// workload while it is still running. The stream lands as it arrives in
// the same captureArm a local capture encodes into (capture.go): the
// header, then each delivered frame's raw bytes, reserved against the
// engine's root budget and overflowing into a trace-store entry once the
// budget refuses them. When the producer finishes, Seal verifies the
// stream ended at a clean frame boundary and settles the arm exactly as
// a capture's is settled — the memory tier (then published to the
// persistent store) or the disk tier — so the live session becomes a
// warm cache entry for every later run.
//
// A session is single-producer: Feed, Seal and Abort must be called
// from one goroutine. Everything a session shares with the rest of the
// engine — the ingest counters, the budget, the cache entry, the store —
// is safe against concurrent Replay/ReplayAll traffic and stat reads. A
// session must end in Seal, a failure or Abort: one abandoned
// mid-stream would hold its reservation, and its overflow temp file
// would stay until the store sweeps it. Deferring Abort right after
// NewIngest covers every early return.

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

// IngestResult reports what Seal settled.
type IngestResult struct {
	Stats IngestStats
	// Adopted reports whether the stream settled into the engine's cache
	// under the session key: the memory tier, or a disk-tier store entry
	// when it outgrew the budget.
	Adopted bool
	// Published reports whether the stream was installed in the
	// persistent trace store under the session key.
	Published bool
}

// IngestSession is one live stream being decoded, replayed, and landed
// for sealing. Construct with Engine.NewIngest.
type IngestSession struct {
	e     *Engine
	key   string
	dec   *trace.StreamDecoder
	sinks []trace.Sink
	masks []trace.OpMask
	opts  IngestOptions

	arm      *captureArm // where the stream lands; nil once discarded
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
	s := &IngestSession{
		e:     e,
		key:   key,
		dec:   trace.NewStreamDecoder(),
		sinks: opts.Sinks,
		opts:  opts,
		arm:   &captureArm{e: e, key: key, acct: e.budget, mem: true},
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

// fail latches the session's first failure and returns it wrapped. A
// broken session settles nothing, so its arm is discarded at once: the
// reservation returns to the budget and any overflow entry is aborted.
func (s *IngestSession) fail(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("%w: %w", ErrIngestBroken, err)
		s.dropArm()
	}
	return s.err
}

// Abort abandons the session: its arm is discarded (the reservation
// returns to the budget, an overflow entry is removed) and
// ErrIngestBroken is latched, so a later Feed or Seal fails. It does
// nothing once the session is sealed or broken, so it can be deferred.
func (s *IngestSession) Abort() {
	if !s.sealed {
		_ = s.fail(errors.New("aborted"))
	}
}

// dropArm discards the session's arm; Seal then settles nothing.
func (s *IngestSession) dropArm() {
	if s.arm != nil {
		s.arm.discard()
		s.arm = nil
	}
}

// land writes stream bytes the decoder consumed to the session's arm. An
// arm that cannot take them — its overflow entry failed to write, or
// the engine is closed — is discarded and the stream keeps replaying
// live. The write is bracketed against Close like any cache work, so
// Close never removes a scratch store an overflow is writing into.
func (s *IngestSession) land(p []byte) {
	if s.arm == nil || len(p) == 0 {
		return
	}
	if s.e.begin() != nil {
		s.dropArm()
		return
	}
	_, err := s.arm.Write(p)
	s.e.end()
	if err != nil {
		s.dropArm()
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

// drain lands and delivers every currently complete frame. ErrStreamOpen
// is the healthy resting state between feeds; io.EOF is drain's clean
// end after CloseInput; anything else breaks the session.
func (s *IngestSession) drain() error {
	for {
		evs, err := s.dec.NextFrame()
		open := errors.Is(err, trace.ErrStreamOpen) || errors.Is(err, io.EOF)
		if err != nil && !open {
			return s.fail(err)
		}
		// The stream header lands with the call that parsed it, even
		// when that call then waits for the first frame.
		s.land(s.dec.Consumed())
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
// delivered, the stream must end at a clean frame boundary (a torn tail
// is corruption here, exactly as a torn file would be), and the landed
// bytes settle where a local capture's would — the memory tier, budget
// permitting, else the disk tier, and the persistent store when one is
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
	res := IngestResult{Stats: s.Stats()}
	if ferr := faults.Inject(faults.IngestSeal); ferr != nil {
		return res, s.fail(fmt.Errorf("seal rejected: %w", ferr))
	}
	s.e.sealedIngests.Add(1)
	if s.arm != nil {
		res.Adopted, res.Published = s.e.sealArm(s.key, s.arm, s.dec.Events())
		s.arm = nil
	}
	return res, nil
}

// sealArm settles a sealed session's arm under key through the arm's
// own settle, as store settles a capture's, and reports whether the
// entry settled and whether the stream reached the persistent store. It
// claims only an empty (or declined) slot — an in-flight or settled
// entry must not be shadowed — and only while the engine is open;
// otherwise the arm is discarded.
func (e *Engine) sealArm(key string, arm *captureArm, events uint64) (adopted, published bool) {
	if e.begin() != nil {
		arm.discard()
		return false, false
	}
	defer e.end()
	e.mu.Lock()
	ent := e.entryLocked(key)
	if ent.state != stateEmpty && ent.state != stateDeclined {
		e.mu.Unlock()
		arm.discard()
		return false, false
	}
	ent.state = stateInflight
	e.mu.Unlock()
	if arm.settle(ent, events) != nil {
		e.rearm(ent)
		return false, false
	}
	return true, arm.persistent || e.putToStore(ent)
}
