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
//     capture or ingest stream that outgrows the budget fails over
//     mid-stream to a sealed trace-store entry: in the attached
//     persistent store, or else in a scratch store the engine creates
//     on first overflow and removes on Close. The disk tier has one
//     format and one read path: an overflowed capture and every
//     persistent-store hit settle there, pointing at a store entry that
//     each replay or decode reads through tracestore.ReadEntry — one
//     mapping, verified by the store in that mapping before the first
//     event, unmapped when the read ends — so a store hit holds no heap
//     bytes and charges no budget. A capture is declined only when its
//     overflow entry keeps failing to write — and a decline re-arms as
//     soon as the budget grows or another tenant asks for it. A corrupt
//     or torn disk-tier entry is caught by that verify and transparently
//     re-captured without consulting the store, whose file the
//     re-capture's put renames over.
//
// Memory and disk entries replay through one path (replaySettled).
// On top of the two encoded tiers sits the decoded-block cache
// (blocks.go): a key's first replay decodes its bytes batch by batch,
// its second decodes them once into immutable []trace.Event blocks —
// charged against the same byte budget — and every later replay walks
// the shared blocks instead of re-decoding.
// ReplayAll fuses a whole configuration sweep into one pass over those
// blocks: M sinks cost one decode, and per-block class masks skip sinks
// that consume none of a block's events. Every path feeds its sinks
// through one serial delivery loop (deliver.go).
//
// The cache has one way in and one way out for every entry. A capture
// and a live-ingest session (ingest.go) land their bytes through the
// same captureArm (capture.go), charged to one budget; they and a store
// hit settle through Engine.settle, and a settled entry returns to
// stateEmpty only through retireLocked.
package engine

import (
	"context"
	"errors"
	"fmt"
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
	stateDisk                       // encoded trace in a trace-store entry, replayed in place
	stateDeclined                   // its overflow entry kept failing; direct-run until re-armed
)

// traceEntry is one cache slot. All fields are guarded by Engine.mu; the
// data segments are immutable once the entry reaches stateMemory, and the
// blocks slice (the decoded-block tier, blocks.go) is immutable once
// published — concurrent replays share it read-only.
type traceEntry struct {
	key     string // the workload fingerprint this slot caches
	state   entryState
	data    [][]byte // stateMemory: encoded v2 trace as frame-aligned segments
	events  uint64   // stateMemory: the capture's event count
	path    string   // stateDisk: the store entry file
	body    int64    // stateDisk, spilled: trace bytes in front of the entry's seal
	spilled bool     // stateDisk: settled by an overflowing capture, not a store hit

	// skipStore marks a slot whose store entry was retired as unreadable:
	// its next settle captures instead of looking the store up again,
	// and that capture's put or overflow renames a good entry over the
	// file.
	skipStore bool

	// Decoded-block tier: the stream decoded once into event blocks, on
	// the entry's second replay (served marks the first).
	served     bool
	blocks     []traceBlock
	blockBytes int64            // bytes blocks charge against the budget
	blockAcct  BudgetAccountant // the accountant those bytes are committed to
	blockBusy  bool             // one goroutine is decoding; others use the byte path

	// Conditions observed when the entry was declined. The entry re-arms
	// when either changes: the declining accountant's budget grew, or a
	// different accountant (another tenant, with its own budget) asks for
	// the entry.
	declinedAcct  BudgetAccountant
	declinedLimit int64
}

// entrySnapshot is the immutable view of a settled entry that Replay
// works from after releasing the cache lock. A disk-tier snapshot
// carries no event count: the store's verify counts the events of every
// read (readSnapshot).
type entrySnapshot struct {
	state  entryState
	data   [][]byte
	events uint64
	path   string
	body   int64
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
	traces     map[string]*traceEntry
	tstore     *tracestore.Store // persistent cross-process store (nil: disabled)
	traceDir   string            // parent of the scratch store ("": os.TempDir())
	scratch    *tracestore.Store // overflow store without tstore, made on first use

	// Close latch: once closed, new passes, replays and ingest sessions
	// fail with ErrClosed; Close itself waits for in-flight work (begin/
	// end brackets) to drain before removing the scratch store.
	closed   bool
	inflight int
	closeErr error // result of the first Close, repeated by later calls

	// Failure-model knobs (errors.go): transient overflow I/O retries.
	retryAttempts int
	retryBase     time.Duration

	// Counters (atomic; exposed for benchmarks and reports).
	captures    atomic.Uint64 // workload executions performed
	replays     atomic.Uint64 // cache replays served (both tiers)
	recaptures  atomic.Uint64 // disk-tier entries invalidated by checksum and re-captured
	decodeHits  atomic.Uint64 // replays served from shared decoded blocks
	replayedEv  atomic.Uint64 // events delivered by cache replays
	spillRetry  atomic.Uint64 // overflow I/O operations retried after a transient failure
	degradedCap atomic.Uint64 // captures degraded to direct re-execution by persistent overflow failure
	storeHits   atomic.Uint64 // entries settled from the persistent store, less those retired before delivering an event
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
// GOMAXPROCS) and the default trace-cache budget. Captures that overflow
// the budget go to a scratch store under os.TempDir() until SetTraceDir
// or SetStore says otherwise.
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
// limit disables the memory tier: every capture overflows to a store
// entry. Raising the limit re-arms captures that were previously
// declined.
func (e *Engine) SetCacheLimit(n int64) {
	e.budget.SetLimit(n)
}

// SetTraceDir sets where the engine makes its scratch store — the store
// that takes overflowing captures when no persistent store is attached —
// as a fresh directory under dir, created on first overflow and removed
// by Close. Engines may share dir: each one's scratch store is its own.
// An empty dir selects os.TempDir(), the default.
func (e *Engine) SetTraceDir(dir string) {
	e.mu.Lock()
	e.traceDir = dir
	e.mu.Unlock()
}

// SetStore attaches a persistent trace store: before executing any
// workload the engine asks the store for its settled trace, and every
// fresh capture is published back — one that overflows the cache
// budget by streaming straight into its store entry — so a store shared
// across processes (or across runs of the same binary) makes all but
// the first run replay-only; a store hit is replayed from the store's
// own file and costs no cache budget. A nil store detaches. Store reads
// and memory-tier publishes are strictly an accelerator: a failed read
// is a miss and a failed publish is dropped — neither can fail a cell.
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
// only then is the scratch store removed — a live replay can never race
// the removal of the entry it is streaming. Entries of the attached
// persistent store belong to the store and are left alone. Close is
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
	for _, ent := range e.traces {
		if ent.state == stateDisk {
			e.retireLocked(ent)
		}
	}
	scratch := e.scratch
	e.scratch = nil
	e.mu.Unlock()
	var err error
	if scratch != nil {
		err = os.RemoveAll(scratch.Dir())
	}
	e.mu.Lock()
	e.closeErr = err
	e.mu.Unlock()
	return err
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
// when the budget has grown or a different accountant (with its own
// budget) asks for the entry. A capture whose workload fails (an error
// from the capture.run injection point, or a panic inside the workload)
// re-arms the entry for later callers and returns the failure, wrapping
// ErrCaptureFailed, to the caller that triggered it. Cache bytes the
// settle buffers are charged to acct.
func (e *Engine) ensure(acct BudgetAccountant, key string, capture CaptureFunc) (entrySnapshot, error) {
	e.mu.Lock()
	ent := e.entryLocked(key)
	for {
		switch ent.state {
		case stateMemory, stateDisk:
			snap := entrySnapshot{state: ent.state, data: ent.data, events: ent.events,
				path: ent.path, body: ent.body}
			e.mu.Unlock()
			return snap, nil
		case stateDeclined:
			if acct != ent.declinedAcct || acct.Limit() > ent.declinedLimit {
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

// entryLocked returns key's cache slot, making an empty one on first
// use. Callers hold e.mu.
func (e *Engine) entryLocked(key string) *traceEntry {
	ent, ok := e.traces[key]
	if !ok {
		ent = &traceEntry{key: key}
		e.traces[key] = ent
	}
	return ent
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
// a corrupt disk-tier entry and re-capture before giving up.
const maxSpillAttempts = 3

// Replay feeds key's operand stream into sink and returns the event
// count. The first request captures the workload (storing the encoding
// in whichever tier has room); concurrent requests for the same key wait
// for that single capture. When no tier could hold the capture, the
// workload simply runs again, streaming straight into sink. A disk-tier
// entry that fails checksum verification is transparently re-captured
// before anything reaches the sink.
func (e *Engine) Replay(key string, capture CaptureFunc, sink trace.Sink) (uint64, error) {
	return e.ReplayAll(key, capture, []trace.Sink{sink})
}

// ReplayAll is ReplayAllContext without cancellation.
func (e *Engine) ReplayAll(key string, capture CaptureFunc, sinks []trace.Sink) (uint64, error) {
	return e.ReplayAllContext(context.Background(), key, capture, sinks)
}

// ReplayAllContext feeds key's operand stream into every sink in one
// fused pass and returns the event count: M configuration sinks cost one
// decode of the stream, not M. The first replay of a key decodes its
// encoded bytes batch by batch; the second decodes them into the shared
// decoded-block tier (budget permitting), and later replays of the key —
// fused or not — walk the blocks read-only; without room for blocks the
// encoded bytes are decoded batch by batch again.
// Either way every batch goes through one serial delivery loop
// (deliver.go): a batch whose events all fall outside a sink's
// advertised class mask skips that sink, and every sink observes the
// exact event sequence a serial Replay would deliver it.
//
// Cancellation is checked before the capture boundary and before every
// delivered batch; a cancellation observed mid-stream returns wrapping
// ErrCanceled with the sinks partially fed, so the caller must treat the
// cell as failed. Transient disk-tier read failures are retried with
// backoff; an entry that stays unreadable is invalidated and
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
		if snap.state == stateDeclined {
			// No tier holds the stream: degrade to direct re-execution,
			// through the same guarded path captures take (capture.run
			// injection, panic recovery, capture-lock hygiene).
			e.captures.Add(1)
			cs := &countingSink{next: trace.Multi(sinks)}
			if err := runCapture(capture, cs); err != nil {
				return cs.n, fmt.Errorf("engine: workload %q: %w: %w", key, ErrCaptureFailed, err)
			}
			return cs.n, nil
		}
		n, readErr, err := e.replaySettled(ctx, acct, key, snap, sinks, masks)
		switch {
		case err != nil:
			return n, fmt.Errorf("engine: cached trace %q: %w", key, err)
		case readErr == nil:
			return replayed(n)
		case snap.state == stateMemory:
			// The memory tier holds bytes our own writer encoded;
			// failing to decode them is a programming error.
			return n, fmt.Errorf("engine: cached trace %q: %w", key, readErr)
		case n == 0:
			// Nothing reached a sink: the store's verify rejected the
			// entry, or it could not be read at all, before the first
			// event. Retire it and re-capture transparently.
			if err := e.retireSpill(key, snap, attempt, readErr); err != nil {
				return 0, err
			}
		default:
			// The file changed under a verified read: the sinks have
			// seen part of the stream, so a silent re-capture would
			// double-feed them. Surface the error.
			e.invalidateSpill(key, snap, true)
			return n, fmt.Errorf("engine: disk-tier trace %q: %w: %w", key, ErrSpillIO, readErr)
		}
	}
}

// retireSpill handles an unreadable disk-tier file during replay: the
// entry is invalidated (the next ensure re-captures) and nil is returned
// so the caller retries — until the attempt budget is spent, at which
// point the failure surfaces wrapping ErrCorruptTrace (frame verification
// failed) or ErrSpillIO (the file could not be read at all).
func (e *Engine) retireSpill(key string, snap entrySnapshot, attempt int, err error) error {
	e.invalidateSpill(key, snap, false)
	if attempt < maxSpillAttempts {
		return nil
	}
	kind := ErrSpillIO
	if errors.Is(err, trace.ErrBadTrace) {
		kind = ErrCorruptTrace
	}
	return fmt.Errorf("engine: disk-tier trace %q unreadable after %d attempts: %w: %w", key, attempt, kind, err)
}

// withSpillRetry runs a disk-tier read, retrying transient
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

// readSnapshot hands a settled entry's encoded stream and its event
// count to use, as frame-aligned segments: the memory tier's where they
// lie, with the capture's count; or the disk tier's store entry,
// verified and mapped for this one call (tracestore.ReadEntry) and
// unmapped when use returns, with the count its verify made. Only the
// read up to use — opening, mapping, verifying — is retried under the
// engine's retry policy, and a verify failure (trace.ErrBadTrace) is
// not; once use has begun its failure comes back as it is — a fault on
// the mapping (the file was truncated under it) included — because use
// may have fed sinks.
func (e *Engine) readSnapshot(snap entrySnapshot, use func(segs [][]byte, events uint64) error) error {
	if snap.state != stateDisk {
		return use(snap.data, snap.events)
	}
	began := false
	var err error
	if oerr := e.withSpillRetry(func() error {
		err = tracestore.ReadEntry(snap.path, func(body []byte, events uint64) error {
			began = true
			return use([][]byte{body}, events)
		})
		if began {
			return nil
		}
		return err
	}); oerr != nil {
		return oerr
	}
	return err
}

// invalidateSpill retires a disk-tier entry whose read failed, so the
// next request re-captures. The file is left in place — a read never
// changes the store — so the re-capture skips the store's lookup, which
// would find the same file again, and its put or overflow renames a
// good entry over it. A store hit retired before its read delivered an
// event is withdrawn from the hit count. The path guard makes
// concurrent detections idempotent.
func (e *Engine) invalidateSpill(key string, snap entrySnapshot, delivered bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent := e.traces[key]
	if ent != nil && ent.state == stateDisk && ent.path == snap.path {
		if !ent.spilled && !delivered {
			e.storeHits.Add(^uint64(0))
		}
		e.retireLocked(ent)
		ent.skipStore = true
		e.recaptures.Add(1)
	}
}

// retireLocked is the one way a settled entry returns to stateEmpty: a
// disk-tier entry whose file is corrupt or, at Close, about to be
// removed. Blocks decoded from the file must not outlive it. Callers
// hold e.mu.
func (e *Engine) retireLocked(ent *traceEntry) {
	ent.state = stateEmpty
	ent.path, ent.body, ent.spilled, ent.events = "", 0, false, 0
	e.dropBlocksLocked(ent)
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
	captureSpillErr                       // overflow-entry I/O failed; the capture may be retried
)

// store settles an in-flight entry into a terminal state: from the
// persistent trace store when one is attached and holds the workload,
// else by capturing — into memory when the encoding fits the reserved
// budget, into a store entry on disk when it overflows. Fresh memory-tier
// captures are published to the persistent store; an overflowing one
// already streamed into it. Transient overflow I/O failures re-run the
// capture (captures are deterministic by contract) with jittered
// backoff; overflow I/O that keeps failing degrades the workload to a
// decline, so replays direct-run it rather than losing the cell. A
// failing workload settles the entry back to empty — later callers
// retry — and the failure is returned wrapping ErrCaptureFailed. The
// caller has already moved the entry to stateInflight.
func (e *Engine) store(acct BudgetAccountant, ent *traceEntry, capture CaptureFunc) error {
	if e.loadFromStore(ent) {
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
			e.rearm(ent)
			return fmt.Errorf("%w: %w", ErrCaptureFailed, err)
		}
		if try >= attempts {
			// Persistent overflow failure: degrade to direct re-execution.
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

// rearm returns an in-flight entry that did not settle to stateEmpty and
// wakes waiters; the next request captures it.
func (e *Engine) rearm(ent *traceEntry) {
	e.mu.Lock()
	ent.state = stateEmpty
	e.cond.Broadcast()
	e.mu.Unlock()
}

// settle is the one way an in-flight entry reaches a settled tier, for a
// store hit, a capture and a sealed ingest alike: it installs the tier
// described by to and wakes the entry's waiters. A memory-tier settle
// commits its segments' length to acct, which the caller has already
// reserved there. spilled marks a disk-tier entry an overflowing arm
// wrote, not a store hit.
func (e *Engine) settle(ent *traceEntry, acct BudgetAccountant, to entrySnapshot, spilled bool) {
	e.mu.Lock()
	if to.state == stateMemory {
		n := trace.SegmentsLen(to.data)
		acct.Commit(n, n)
		e.memBytes += n
	}
	ent.state, ent.data, ent.events = to.state, to.data, to.events
	ent.path, ent.body, ent.spilled = to.path, to.body, spilled
	ent.served = false
	e.cond.Broadcast()
	e.mu.Unlock()
}

// settleDeclined records a decline with the conditions that produced it,
// so the entry re-arms when either changes.
func (e *Engine) settleDeclined(acct BudgetAccountant, ent *traceEntry) {
	e.mu.Lock()
	ent.state = stateDeclined
	ent.declinedAcct = acct
	ent.declinedLimit = acct.Limit()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// loadFromStore tries to settle an in-flight entry from the persistent
// trace store. The store's Lookup only finds the entry file; the entry
// settles in the disk tier, pointing at the file it is replayed from —
// exactly as an overflowed capture is — so a hit holds no memory and
// charges no budget; it counts as a store hit, not a spilled trace.
// Every replay's read verifies the file's seal and every frame CRC
// before the first event (readSnapshot). A miss (absent, shorter than a
// seal, injected fault) makes the caller capture, and the put that
// follows heals the entry. So does a slot whose store entry was retired
// as unreadable (invalidateSpill): it skips the lookup once.
func (e *Engine) loadFromStore(ent *traceEntry) bool {
	e.mu.Lock()
	st, skip := e.tstore, ent.skipStore
	ent.skipStore = false
	e.mu.Unlock()
	if st == nil || skip {
		return false
	}
	path, err := st.Lookup(ent.key)
	if err != nil {
		return false
	}
	e.storeHits.Add(1) // before the settle: a replay may retire the hit
	e.settle(ent, nil, entrySnapshot{state: stateDisk, path: path}, false)
	return true
}

// putToStore publishes a freshly settled memory-tier entry to the
// persistent trace store (an overflowed one is already a store entry)
// and reports whether it did. Failures are deliberately dropped: the
// store is an accelerator, and a faulted publish must not cost the cell
// — the entry is simply captured again by the next cold process, whose
// own publish heals the store.
func (e *Engine) putToStore(ent *traceEntry) bool {
	e.mu.Lock()
	st := e.tstore
	state, data := ent.state, ent.data
	e.mu.Unlock()
	if st == nil || state != stateMemory || st.Put(ent.key, data...) != nil {
		return false
	}
	e.storePuts.Add(1)
	return true
}

// captureOnce runs one capture attempt and either adopts its encoding
// into a tier (settling the entry) or classifies the failure for store's
// retry loop. On anything but captureStored the arm's resources are
// released and the entry is left in stateInflight for the caller to
// settle.
func (e *Engine) captureOnce(acct BudgetAccountant, ent *traceEntry, capture CaptureFunc) (captureOutcome, error) {
	e.captures.Add(1)
	arm := &captureArm{e: e, key: ent.key, acct: acct, mem: true}
	tw, err := trace.NewWriterV2(arm, false)
	if err == nil {
		if cerr := runCapture(capture, tw); cerr != nil {
			arm.discard()
			return captureFailed, cerr
		}
		err = tw.Close()
	}

	if err == nil {
		err = arm.settle(ent, tw.Count())
	} else {
		arm.discard()
	}
	if err != nil {
		return captureSpillErr, fmt.Errorf("%w: %w", ErrSpillIO, err)
	}
	return captureStored, nil
}

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
