// Package engine is the parallel experiment engine: it runs the paper's
// evaluation matrix — every (workload × table-configuration) cell of
// Tables 5–13 and Figures 2–4 — across a bounded worker pool instead of
// serially, and it captures each workload's operand trace once (in the
// binary trace format of internal/trace) so N memo configurations replay
// one recorded stream rather than re-executing the kernel N times.
//
// Two properties make the engine safe to put under the experiment
// drivers:
//
//   - Determinism. A replayed trace is byte-for-byte the stream the
//     workload emits, so every MEMO-TABLE sees the identical operand
//     sequence it would see in a serial run, and each cell owns its
//     tables outright. Results are written into per-cell slots, so
//     aggregation order is fixed by cell index, not completion order —
//     paper-layout output is bit-identical at any worker count.
//   - Bounded resources. The pool never exceeds its worker count, and
//     the trace cache is tiered under explicit space control: the
//     memory tier never exceeds its byte budget (reservations are taken
//     under the cache lock before bytes are buffered, so concurrent
//     captures cannot transiently hold multiples of the budget), and a
//     capture that outgrows the budget fails over mid-stream to a
//     CRC-framed spill file under TraceDir. A persistent-store hit that
//     outgrows the budget is not captured at all: it joins the disk
//     tier in place, pointing at the store's own sealed file, which the
//     engine replays but never removes. Only when neither tier can hold
//     a capture is it declined — and a decline is re-armed as soon as
//     the budget grows or a spill directory appears, so raising either
//     limit retroactively repairs earlier declines. Corrupt or torn
//     disk-tier files are detected by frame checksum on every replay
//     and transparently re-captured.
//
// On top of the two encoded tiers sits the decoded-block cache
// (blocks.go): the first replay of a key decodes its bytes once into
// immutable []trace.Event blocks — charged against the same byte budget —
// and every later replay walks the shared blocks instead of re-decoding.
// ReplayAll fuses a whole configuration sweep into one pass over those
// blocks: M sinks cost one decode, and per-block class masks skip sinks
// that consume none of a block's events. Every path feeds its sinks
// through one serial delivery loop (deliver.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"memotable/internal/faults"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// DefaultCacheBytes bounds the in-memory trace cache of engines built by
// New: 256 MB of encoded events, enough for every quick-scale trace of
// the evaluation while keeping full-scale sweeps from exhausting memory.
const DefaultCacheBytes = 256 << 20

// CaptureFunc runs a workload, emitting its operand trace into the sink.
// It must be deterministic and self-contained: the trace it emits is a
// pure function of the workload (per-run state such as the synthetic
// image address space belongs to the capture, not the process — see
// imaging.AddressSpace), so the engine runs captures concurrently on its
// worker pool and assumes replaying a stored capture is
// indistinguishable from running the workload again — in this process or
// any other, which is what lets settled traces persist in a cross-process
// store.
type CaptureFunc func(trace.Sink)

// entryState is the lifecycle of one cache slot. Unlike a sync.Once, the
// state machine can travel backwards: a declined or corrupted entry
// returns to stateEmpty and the next request re-captures it.
type entryState uint8

const (
	stateEmpty    entryState = iota // no usable capture; next request captures
	stateInflight                   // one goroutine is capturing; others wait
	stateMemory                     // encoded trace held in RAM
	stateDisk                       // encoded trace in a v2 file: a spill file or a store entry
	stateDeclined                   // no tier could hold it; direct-run until re-armed
)

// traceEntry is one cache slot. All fields are guarded by Engine.mu; the
// data segments are immutable once the entry reaches stateMemory, and the
// blocks slice (the decoded-block tier, blocks.go) is immutable once
// published — concurrent replays share it read-only.
type traceEntry struct {
	key    string // the workload fingerprint this slot caches
	state  entryState
	data   [][]byte // stateMemory: encoded v2 trace as frame-aligned segments
	events uint64
	path   string // stateDisk: spill file, or store entry when stored
	disk   int64  // stateDisk: sealed spill file size (spill-tier stats)
	body   int64  // stateDisk, stored: trace bytes in front of the entry's seal
	stored bool   // stateDisk: path belongs to the store; the engine never removes it

	// Decoded-block tier: the stream decoded once into event blocks.
	blocks     []traceBlock
	blockBytes int64            // bytes blocks charge against the budget
	blockAcct  BudgetAccountant // the accountant those bytes are committed to
	blockBusy  bool             // one goroutine is decoding; others use the byte path

	// Conditions observed when the entry was declined. The entry re-arms
	// when any improves: the declining accountant's budget grew, a spill
	// tier appeared, or a different accountant (another tenant, with its
	// own budget) asks for the entry.
	declinedAcct  BudgetAccountant
	declinedLimit int64
	declinedSpill bool
}

// entrySnapshot is the immutable view of a settled entry that Replay
// works from after releasing the cache lock.
type entrySnapshot struct {
	state  entryState
	data   [][]byte
	events uint64
	path   string
	body   int64
	stored bool
}

// Engine is a bounded worker pool with an attached two-tier trace cache.
// The zero value is not usable; construct with New or Serial.
type Engine struct {
	workers int

	// budget is the root BudgetAccountant every cache tier charges bytes
	// through (budget.go): memory-tier adoptions and decoded-block
	// publishes commit against it, in-flight captures and decodes reserve
	// against it, so used+reserved never exceeds the limit. Per-call
	// accountants (WithBudget) nest under this root.
	budget *Budget

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when an entry leaves stateInflight
	memBytes   int64      // bytes held by stateMemory entries
	blockBytes int64      // bytes held by decoded-block tiers of all entries
	spillDir   string
	traces     map[string]*traceEntry
	tstore     *tracestore.Store // persistent cross-process store (nil: disabled)

	// Close latch: once closed, new passes, replays and ingest sessions
	// fail with ErrClosed; Close itself waits for in-flight work (begin/
	// end brackets) to drain before touching spill files.
	closed   bool
	inflight int
	closeErr error // result of the first Close, repeated by later calls

	// Failure-model knobs (errors.go): transient spill I/O retries.
	retryAttempts int
	retryBase     time.Duration

	// Counters (atomic; exposed for benchmarks and reports).
	captures    atomic.Uint64 // workload executions performed
	replays     atomic.Uint64 // cache replays served (both tiers)
	recaptures  atomic.Uint64 // spill files invalidated by checksum and re-captured
	decodeHits  atomic.Uint64 // replays served from shared decoded blocks
	replayedEv  atomic.Uint64 // events delivered by cache replays
	spillRetry  atomic.Uint64 // spill I/O operations retried after a transient failure
	degradedCap atomic.Uint64 // captures degraded to direct re-execution by persistent spill failure
	storeHits   atomic.Uint64 // entries settled from the persistent store instead of capturing
	storePuts   atomic.Uint64 // fresh captures published to the persistent store

	// Delivery counters (deliver.go), written by every replay and
	// ingest session.
	deliveredEv atomic.Uint64 // events delivered per sink
	maskSkips   atomic.Uint64 // (sink, batch) deliveries skipped by class mask

	// Live-ingest counters (ingest.go).
	ingestFrames  atomic.Uint64 // frames delivered by ingest sessions
	ingestEvents  atomic.Uint64 // events delivered by ingest sessions
	ingestBytes   atomic.Uint64 // raw stream bytes fed to ingest sessions
	sealedIngests atomic.Uint64 // ingest sessions sealed cleanly
}

// New builds an engine with the given worker count (<= 0 selects
// GOMAXPROCS), the default trace-cache budget, and no spill tier.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:       workers,
		budget:        NewBudget(DefaultCacheBytes),
		traces:        make(map[string]*traceEntry),
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Serial builds a single-worker engine: cells execute in index order on
// the calling goroutine, the reference serial path the golden tests pin.
func Serial() *Engine { return New(1) }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetCacheLimit adjusts the memory tier's byte budget. A non-positive
// limit disables the memory tier (captures spill to TraceDir when one is
// set, and are declined otherwise). Raising the limit re-arms captures
// that were previously declined for space.
func (e *Engine) SetCacheLimit(n int64) {
	e.budget.SetLimit(n)
}

// SetTraceDir enables the disk spill tier: captures that exceed the
// memory budget stream into CRC-framed trace files under dir, created on
// demand. An empty dir disables the tier. Enabling it re-arms captures
// that were previously declined for space.
//
// SetTraceDir also sweeps the directory for orphaned spill temp files
// (*.mtrc.tmp) left by a process that died between creating a spill file
// and sealing it — sealed files are renamed out of the temp suffix, so
// anything still wearing it is garbage. The sweep assumes the directory
// is not shared with a concurrently spilling process.
func (e *Engine) SetTraceDir(dir string) {
	e.mu.Lock()
	e.spillDir = dir
	e.mu.Unlock()
	sweepSpillOrphans(dir)
}

// TraceDir returns the spill directory ("" when the tier is disabled).
func (e *Engine) TraceDir() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.spillDir
}

// SetStore attaches a persistent trace store: before executing any
// workload the engine asks the store for its settled trace, and every
// fresh capture is published back, so a store shared across processes
// (or across runs of the same binary) makes all but the first run
// replay-only; a hit the cache budget cannot hold is replayed from the
// store's own file. A nil store detaches. Store I/O is strictly an
// accelerator: a failed read is a miss and a failed publish is dropped —
// neither can fail a cell.
func (e *Engine) SetStore(st *tracestore.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tstore = st
}

// Store returns the attached persistent trace store (nil when detached).
func (e *Engine) Store() *tracestore.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tstore
}

// dropBlocksLocked releases an entry's decoded-block tier — the shared
// blocks, the tier's byte accounting, and the budget bytes the decode
// committed. Callers hold e.mu.
func (e *Engine) dropBlocksLocked(ent *traceEntry) {
	if ent.blocks == nil {
		return
	}
	e.blockBytes -= ent.blockBytes
	if ent.blockAcct != nil {
		ent.blockAcct.Release(0, ent.blockBytes)
	}
	ent.blocks, ent.blockBytes, ent.blockAcct = nil, 0, nil
}

// begin brackets one unit of in-flight work (a pass, a fused replay, a
// warm) against Close: it fails with ErrClosed once the engine is
// closed, and a successful begin must be paired with end.
func (e *Engine) begin() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight++
	return nil
}

// end retires one begin, waking a Close blocked on the drain.
func (e *Engine) end() {
	e.mu.Lock()
	e.inflight--
	if e.closed && e.inflight == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// Close shuts the engine down: new RunPassContext, Warm, Replay and
// NewIngest calls fail with ErrClosed, in-flight work is waited out, and
// only then are the engine's spill files removed and orphaned spill temp
// files swept from the trace directory — a live replay can never race
// the removal of the file it is streaming. Store entries the engine
// replayed in place belong to the store and are left alone. Close is
// idempotent: the first call does the work and latches its result, later
// calls return that same result without re-touching the filesystem.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		err := e.closeErr
		e.mu.Unlock()
		return err
	}
	e.closed = true
	for e.inflight > 0 {
		e.cond.Wait()
	}
	dir := e.spillDir
	var paths []string
	for _, ent := range e.traces {
		if ent.state == stateDisk {
			if !ent.stored {
				paths = append(paths, ent.path)
			}
			ent.state = stateEmpty
			ent.path, ent.body, ent.stored = "", 0, false
			// Blocks decoded from the removed file must not outlive it.
			e.dropBlocksLocked(ent)
		}
	}
	e.mu.Unlock()
	var firstErr error
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	sweepSpillOrphans(dir)
	e.mu.Lock()
	e.closeErr = firstErr
	e.mu.Unlock()
	return firstErr
}

// Map runs cell(0..n-1) across the worker pool and returns when all
// cells have finished. Cells must be independent: each writes only its
// own result slot, which is what keeps aggregation order-independent. A
// panic in any cell is re-raised on the caller after the pool drains.
func (e *Engine) Map(n int, cell func(i int)) {
	if n <= 0 {
		return
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			cell(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicVal any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				cell(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// ensure settles key's entry — capturing the workload if no usable tier
// holds it yet — and returns a snapshot of the settled state. Concurrent
// callers for the same key singleflight: exactly one captures, the rest
// wait on the engine's condition variable. A declined entry re-arms here
// when the budget has grown, a spill tier has appeared, or a different
// accountant (with its own budget) asks for the entry. A capture whose
// workload fails (an error from the capture.run injection point, or a
// panic inside the workload) re-arms the entry for later callers and
// returns the failure, wrapping ErrCaptureFailed, to the caller that
// triggered it. Cache bytes the settle buffers are charged to acct.
func (e *Engine) ensure(acct BudgetAccountant, key string, capture CaptureFunc) (entrySnapshot, error) {
	e.mu.Lock()
	ent, ok := e.traces[key]
	if !ok {
		ent = &traceEntry{key: key}
		e.traces[key] = ent
	}
	for {
		switch ent.state {
		case stateMemory, stateDisk:
			snap := entrySnapshot{state: ent.state, data: ent.data, events: ent.events,
				path: ent.path, body: ent.body, stored: ent.stored}
			e.mu.Unlock()
			return snap, nil
		case stateDeclined:
			if acct != ent.declinedAcct || acct.Limit() > ent.declinedLimit ||
				(e.spillDir != "" && !ent.declinedSpill) {
				ent.state = stateEmpty // conditions improved: re-arm
				continue
			}
			e.mu.Unlock()
			return entrySnapshot{state: stateDeclined}, nil
		case stateEmpty:
			ent.state = stateInflight
			e.mu.Unlock()
			if err := e.store(acct, ent, capture); err != nil {
				return entrySnapshot{}, err
			}
			e.mu.Lock()
		case stateInflight:
			e.cond.Wait()
		}
	}
}

// Warm ensures key's trace is captured and stored (tier permitting)
// without replaying it anywhere. Drivers call it over their workload
// list up front so the replay phase never stalls a cell on a capture.
// A failing workload surfaces here wrapping ErrCaptureFailed; the entry
// stays re-armed, so a later Replay retries rather than inheriting the
// fault. A closed engine fails with ErrClosed.
func (e *Engine) Warm(key string, capture CaptureFunc) error {
	return e.WarmContext(context.Background(), key, capture)
}

// WarmContext is Warm charging cache bytes to the context's budget
// accountant (WithBudget) instead of the engine's root budget.
func (e *Engine) WarmContext(ctx context.Context, key string, capture CaptureFunc) error {
	if err := e.begin(); err != nil {
		return err
	}
	defer e.end()
	_, err := e.ensure(e.budgetFrom(ctx), key, capture)
	return err
}

// maxSpillAttempts bounds how many times one Replay call will invalidate
// a corrupt spill file and re-capture before giving up.
const maxSpillAttempts = 3

// Replay feeds key's operand stream into sink and returns the event
// count. The first request captures the workload (storing the encoding
// in whichever tier has room); concurrent requests for the same key wait
// for that single capture. When no tier could hold the capture, the
// workload simply runs again, streaming straight into sink. A spill file
// that fails checksum verification is removed and transparently
// re-captured before anything reaches the sink.
func (e *Engine) Replay(key string, capture CaptureFunc, sink trace.Sink) (uint64, error) {
	return e.ReplayAll(key, capture, []trace.Sink{sink})
}

// ReplayAll is ReplayAllContext without cancellation.
func (e *Engine) ReplayAll(key string, capture CaptureFunc, sinks []trace.Sink) (uint64, error) {
	return e.ReplayAllContext(context.Background(), key, capture, sinks)
}

// ReplayAllContext feeds key's operand stream into every sink in one
// fused pass and returns the event count: M configuration sinks cost one
// decode of the stream, not M. The first fused replay of a key decodes
// its bytes into the shared decoded-block tier (budget permitting) and
// later replays of the key — fused or not — walk the blocks read-only;
// without room for blocks the encoded bytes are decoded batch by batch.
// Either way every batch goes through one serial delivery loop
// (deliver.go): a batch whose events all fall outside a sink's
// advertised class mask skips that sink, and every sink observes the
// exact event sequence a serial Replay would deliver it.
//
// Cancellation is checked before the capture boundary and before every
// delivered batch; a cancellation observed mid-stream returns wrapping
// ErrCanceled with the sinks partially fed, so the caller must treat the
// cell as failed. Transient spill-read failures are retried with
// backoff; a spill file that stays unreadable is invalidated and
// transparently re-captured, and errors that survive all of that wrap
// ErrSpillIO or ErrCorruptTrace.
func (e *Engine) ReplayAllContext(ctx context.Context, key string, capture CaptureFunc, sinks []trace.Sink) (uint64, error) {
	if len(sinks) == 0 {
		return 0, nil
	}
	if err := e.begin(); err != nil {
		return 0, err
	}
	defer e.end()
	acct := e.budgetFrom(ctx)
	masks := trace.SinkMasks(sinks)
	replayed := func(n uint64) (uint64, error) {
		e.replays.Add(1)
		e.replayedEv.Add(n)
		return n, nil
	}
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return 0, ctxErr(ctx)
		}
		snap, err := e.ensure(acct, key, capture)
		if err != nil {
			return 0, err
		}
		switch snap.state {
		case stateDeclined:
			// No tier holds the stream: degrade to direct re-execution,
			// through the same guarded path captures take (capture.run
			// injection, panic recovery, capture-lock hygiene).
			e.captures.Add(1)
			cs := &countingSink{next: trace.Multi(sinks)}
			if err := runCapture(capture, cs); err != nil {
				return cs.n, fmt.Errorf("engine: workload %q: %w: %w", key, ErrCaptureFailed, err)
			}
			return cs.n, nil

		case stateMemory:
			blocks, err := e.blocksFor(acct, key, snap)
			if err != nil {
				// The memory tier holds bytes our own writer encoded;
				// failing to decode them is a programming error.
				return 0, fmt.Errorf("engine: cached trace %q: %w", key, err)
			}
			var n uint64
			if blocks != nil {
				n, err = e.emitBlocks(ctx, blocks, sinks, masks)
			} else {
				var readErr error
				n, readErr, err = e.replayBytes(ctx, snap, sinks, masks)
				if err == nil {
					err = readErr
				}
			}
			if err != nil {
				return n, fmt.Errorf("engine: cached trace %q: %w", key, err)
			}
			return replayed(n)

		case stateDisk:
			what := "spilled trace"
			if snap.stored {
				what = "stored trace"
			}
			// Decoding into blocks verifies every frame checksum before
			// any event reaches a sink, so a corrupt file detected here is
			// re-captured transparently, exactly like the
			// verify-then-replay byte path below.
			blocks, err := e.blocksFor(acct, key, snap)
			if err != nil {
				if err = e.retireSpill(key, snap, attempt, err); err != nil {
					return 0, err
				}
				continue
			}
			if blocks != nil {
				n, err := e.emitBlocks(ctx, blocks, sinks, masks)
				if err != nil {
					return n, fmt.Errorf("engine: %s %q: %w", what, key, err)
				}
				return replayed(n)
			}
			// Verify every frame checksum before the first event is
			// emitted: a corrupt or torn file must be caught while the
			// sink is still untouched, so re-capturing stays
			// transparent to the caller.
			if err := e.withSpillRetry(func() error { return verifySpill(snap) }); err != nil {
				if err = e.retireSpill(key, snap, attempt, err); err != nil {
					return 0, err
				}
				continue
			}
			n, readErr, err := e.replayBytes(ctx, snap, sinks, masks)
			if err != nil {
				return n, fmt.Errorf("engine: %s %q: %w", what, key, err)
			}
			if readErr != nil {
				// Post-verification failure (the file changed under
				// us): the sink has seen partial events, so a silent
				// re-capture would double-feed it. Surface the error.
				e.invalidateSpill(key, snap)
				return n, fmt.Errorf("engine: %s %q: %w: %w", what, key, ErrSpillIO, readErr)
			}
			return replayed(n)
		}
	}
}

// retireSpill handles an unreadable disk-tier file during replay: the
// entry is invalidated (the next ensure re-captures) and nil is returned
// so the caller retries — until the attempt budget is spent, at which
// point the failure surfaces wrapping ErrCorruptTrace (frame verification
// failed) or ErrSpillIO (the file could not be read at all).
func (e *Engine) retireSpill(key string, snap entrySnapshot, attempt int, err error) error {
	e.invalidateSpill(key, snap)
	if attempt < maxSpillAttempts {
		return nil
	}
	kind := ErrSpillIO
	if errors.Is(err, trace.ErrBadTrace) {
		kind = ErrCorruptTrace
	}
	return fmt.Errorf("engine: disk-tier trace %q unreadable after %d attempts: %w: %w", key, attempt, kind, err)
}

// withSpillRetry runs a spill-read operation, retrying transient
// failures with jittered backoff under the engine's retry policy.
// Corruption (trace.ErrBadTrace) is never retried: re-reading a file
// with a bad checksum cannot fix it, only re-capturing can.
func (e *Engine) withSpillRetry(op func() error) error {
	attempts, base := e.retryPolicy()
	var err error
	for try := 0; ; try++ {
		if err = op(); err == nil || errors.Is(err, trace.ErrBadTrace) {
			return err
		}
		if try >= attempts {
			return err
		}
		e.spillRetry.Add(1)
		backoff(base, try+1)
	}
}

// openDisk opens a disk-tier entry's trace stream: a spill file whole,
// or a store entry's trace bytes, which stop at its seal trailer. The
// spill.read injection point fires first for a spill file, store.read
// for a store entry.
func openDisk(snap entrySnapshot) (*os.File, io.Reader, error) {
	point := faults.SpillRead
	if snap.stored {
		point = faults.StoreRead
	}
	if err := faults.Inject(point); err != nil {
		return nil, nil, err
	}
	f, err := os.Open(snap.path)
	if err != nil {
		return nil, nil, err
	}
	if snap.stored {
		return f, io.LimitReader(f, snap.body), nil
	}
	return f, f, nil
}

// openSnapshot opens a settled entry's encoded stream for decoding: its
// memory-tier segments in place, or its disk-tier file. done releases
// the file (a no-op for memory).
func openSnapshot(snap entrySnapshot) (r *trace.Reader, done func(), err error) {
	if snap.state != stateDisk {
		r, err = trace.NewSegmentReader(snap.data)
		return r, func() {}, err
	}
	f, rd, err := openDisk(snap)
	if err != nil {
		return nil, nil, err
	}
	if r, err = trace.NewReader(rd); err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return r, func() { _ = f.Close() }, nil
}

// verifySpill checksums every frame of a disk-tier entry and checks the
// total event count against the capture's, without emitting anything.
func verifySpill(snap entrySnapshot) error {
	f, r, err := openDisk(snap)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	n, err := trace.Verify(r)
	if err != nil {
		return err
	}
	if n != snap.events {
		return fmt.Errorf("disk tier holds %d of %d events", n, snap.events)
	}
	return nil
}

// invalidateSpill retires a disk-tier entry observed to be corrupt: the
// entry returns to stateEmpty (so the next request re-captures, or finds
// a healed store entry) and a spill file is removed. A store entry is
// the store's to replace, never the engine's to delete. The path guard
// makes concurrent detections idempotent.
func (e *Engine) invalidateSpill(key string, snap entrySnapshot) {
	e.mu.Lock()
	ent := e.traces[key]
	if ent != nil && ent.state == stateDisk && ent.path == snap.path {
		ent.state = stateEmpty
		ent.path, ent.body, ent.stored = "", 0, false
		ent.events = 0
		ent.disk = 0
		e.dropBlocksLocked(ent)
		e.recaptures.Add(1)
	}
	e.mu.Unlock()
	if !snap.stored {
		_ = os.Remove(snap.path)
	}
}

// runCapture executes a workload capture, converting a panicking
// workload into an error. Captures run concurrently on the worker pool —
// each owns its address space, so no cross-capture exclusion is needed.
// The capture.run injection point fires here, so captures and declined
// direct re-executions share one fault edge.
func runCapture(capture CaptureFunc, sink trace.Sink) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError(r)
		}
	}()
	if ferr := faults.Inject(faults.CaptureRun); ferr != nil {
		return ferr
	}
	capture(sink)
	return nil
}

// captureOutcome classifies one capture attempt for store's retry loop.
type captureOutcome uint8

const (
	captureStored   captureOutcome = iota // entry settled into memory or disk
	captureFailed                         // the workload itself errored or panicked
	captureSpillErr                       // spill-tier I/O failed; the capture may be retried
	captureNoRoom                         // no tier has room; decline
)

// store settles an in-flight entry into a terminal state: from the
// persistent trace store when one is attached and holds the workload,
// else by capturing — into memory when the encoding fits the reserved
// budget, disk when it overflows and a spill directory is set, declined
// otherwise. Fresh captures are published back to the persistent store.
// Transient spill I/O failures re-run the capture (captures are
// deterministic by contract) with jittered backoff; a spill tier that
// keeps failing degrades the workload to a decline, so replays
// direct-run it rather than losing the cell. A failing workload settles
// the entry back to empty — later callers retry — and the failure is
// returned wrapping ErrCaptureFailed. The caller has already moved the
// entry to stateInflight.
func (e *Engine) store(acct BudgetAccountant, ent *traceEntry, capture CaptureFunc) error {
	if e.loadFromStore(acct, ent) {
		return nil
	}
	attempts, base := e.retryPolicy()
	for try := 0; ; try++ {
		outcome, err := e.captureOnce(acct, ent, capture)
		switch outcome {
		case captureStored:
			e.putToStore(ent)
			return nil
		case captureFailed:
			e.settle(ent, stateEmpty)
			return fmt.Errorf("%w: %w", ErrCaptureFailed, err)
		case captureNoRoom:
			e.settleDeclined(acct, ent)
			return nil
		}
		if try >= attempts {
			// Persistent spill failure: degrade to direct re-execution.
			// Results stay byte-identical; the workload just re-runs on
			// every replay instead of being cached.
			e.degradedCap.Add(1)
			e.settleDeclined(acct, ent)
			return nil
		}
		e.spillRetry.Add(1)
		backoff(base, try+1)
	}
}

// settle moves an in-flight entry to the given state and wakes waiters.
func (e *Engine) settle(ent *traceEntry, s entryState) {
	e.mu.Lock()
	ent.state = s
	e.cond.Broadcast()
	e.mu.Unlock()
}

// settleDeclined records a decline with the conditions that produced it,
// so the entry re-arms when any improves.
func (e *Engine) settleDeclined(acct BudgetAccountant, ent *traceEntry) {
	e.mu.Lock()
	ent.state = stateDeclined
	ent.declinedAcct = acct
	ent.declinedLimit = acct.Limit()
	ent.declinedSpill = e.spillDir != ""
	e.cond.Broadcast()
	e.mu.Unlock()
}

// loadFromStore tries to settle an in-flight entry from the persistent
// trace store. The store verifies the entry's seal and every frame CRC
// before handing anything over. An entry the byte budget covers is
// adopted into the memory tier; one it does not cover settles as a
// disk-tier entry that points at the store file and is replayed in
// place. Such an entry is stored: Close and invalidation leave the file
// to the store, and it counts as a store hit, not a spilled trace. Any
// store failure (absent, torn, corrupt, injected fault) is a miss: the
// caller captures, and the put that follows heals the entry.
func (e *Engine) loadFromStore(acct BudgetAccountant, ent *traceEntry) bool {
	e.mu.Lock()
	st := e.tstore
	e.mu.Unlock()
	if st == nil {
		return false
	}
	hit, err := st.Lookup(ent.key, acct)
	if err != nil {
		return false
	}
	e.mu.Lock()
	if hit.Data != nil {
		acct.Commit(hit.Size, hit.Size)
		e.memBytes += hit.Size
		ent.data = [][]byte{hit.Data}
		ent.state = stateMemory
	} else {
		ent.path, ent.body, ent.stored = hit.Path, hit.Size, true
		ent.state = stateDisk
	}
	ent.events = hit.Events
	e.cond.Broadcast()
	e.mu.Unlock()
	e.storeHits.Add(1)
	return true
}

// putToStore publishes a freshly settled capture to the persistent
// trace store. Failures are deliberately dropped: the store is an
// accelerator, and a faulted publish must not cost the cell — the entry
// is simply captured again by the next cold process, whose own publish
// heals the store.
func (e *Engine) putToStore(ent *traceEntry) {
	e.mu.Lock()
	st := e.tstore
	state, data, path := ent.state, ent.data, ent.path
	e.mu.Unlock()
	if st == nil {
		return
	}
	var err error
	switch state {
	case stateMemory:
		err = st.Put(ent.key, data...)
	case stateDisk:
		err = st.PutFile(ent.key, path)
	default:
		return
	}
	if err == nil {
		e.storePuts.Add(1)
	}
}

// captureOnce runs one capture attempt and either adopts its encoding
// into a tier (settling the entry) or classifies the failure for store's
// retry loop. On anything but captureStored the arm's resources are
// released and the entry is left in stateInflight for the caller to
// settle.
func (e *Engine) captureOnce(acct BudgetAccountant, ent *traceEntry, capture CaptureFunc) (captureOutcome, error) {
	e.captures.Add(1)
	arm := &captureArm{e: e, acct: acct, mem: true}
	tw, err := trace.NewWriterV2(arm, false)
	if err == nil {
		if cerr := runCapture(capture, tw); cerr != nil {
			arm.discard()
			return captureFailed, cerr
		}
		err = tw.Close()
	}

	if err == nil && arm.mem {
		// The whole stream fits the memory reservation: adopt its slabs.
		e.mu.Lock()
		acct.Commit(arm.reserved, arm.slabs.Len())
		arm.reserved = 0
		e.memBytes += arm.slabs.Len()
		ent.data = arm.slabs.Segments()
		ent.events = tw.Count()
		ent.state = stateMemory
		e.cond.Broadcast()
		e.mu.Unlock()
		return captureStored, nil
	}
	if err == nil && arm.f != nil {
		if cerr := arm.seal(); cerr == nil {
			var size int64
			if fi, serr := os.Stat(arm.path); serr == nil {
				size = fi.Size()
			}
			e.mu.Lock()
			ent.path = arm.path
			ent.events = tw.Count()
			ent.state = stateDisk
			ent.disk = size
			e.cond.Broadcast()
			e.mu.Unlock()
			return captureStored, nil
		} else {
			err = cerr
		}
	}

	// The capture encoded fine but no tier adopted it: release whatever
	// the arm still holds and classify why.
	arm.discard()
	if err == nil || errors.Is(err, errCacheFull) {
		return captureNoRoom, nil
	}
	return captureSpillErr, fmt.Errorf("%w: %w", ErrSpillIO, err)
}

// errCacheFull aborts a capture no tier can hold.
var errCacheFull = errors.New("engine: trace cache budget exceeded and no spill tier")

// countingSink counts events on their way to the wrapped sink.
type countingSink struct {
	next trace.Sink
	n    uint64
}

// Emit implements trace.Sink.
func (c *countingSink) Emit(ev trace.Event) {
	c.n++
	c.next.Emit(ev)
}

// EmitBatch implements trace.BatchSink.
func (c *countingSink) EmitBatch(evs []trace.Event) {
	c.n += uint64(len(evs))
	trace.EmitAll(c.next, evs)
}
