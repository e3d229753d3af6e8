// Package engine is the parallel experiment engine: it runs the paper's
// evaluation matrix — every (workload × table-configuration) cell of
// Tables 5–13 and Figures 2–4 — across a bounded worker pool instead of
// serially. Each workload runs once per request, straight into the
// sinks of every configuration that consumes it: ReplayAll fuses a whole
// configuration sweep into one run of the workload, so N memo
// configurations share one execution rather than re-executing the
// kernel N times.
//
// Two properties make the engine safe to put under the experiment
// drivers:
//
//   - Determinism. A workload emits the same stream on every run, so
//     every MEMO-TABLE sees the identical operand sequence it would see
//     in a serial run, and each cell owns its tables outright. Results
//     are written into per-cell slots, so aggregation order is fixed by
//     cell index, not completion order — paper-layout output is
//     bit-identical at any worker count.
//   - Bounded resources. The pool never exceeds its worker count, and a
//     running workload holds one batch of events: its stream is cut into
//     blockLen batches on the way to the sinks, and nothing of it is
//     kept once the batch is delivered.
//
// Runs are not cached: a pass feeds every sink of a workload from one
// run, so a cached trace would add an encode, a write, a checksum and a
// decode to every run and save nothing (EXPERIMENTS.md, "Direct
// execution").
//
// Every batch reaches its sinks through one serial delivery loop
// (deliver.go), for workload runs and live-ingest sessions (ingest.go)
// alike.
package engine

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"memotable/internal/faults"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// CaptureFunc runs a workload, emitting its operand trace into the sink.
// It must be deterministic and self-contained: the trace it emits is a
// pure function of the workload (per-run state such as the synthetic
// image address space belongs to the run, not the process — see
// imaging.AddressSpace), so the engine runs workloads concurrently on
// its worker pool and every run of one feeds its sinks the same stream.
// It must emit on the goroutine that calls it: the sink may stop the
// run by panicking (a failed delivery), and runCapture recovers that
// panic there.
type CaptureFunc func(trace.Sink)

// Engine is a bounded worker pool that runs workloads into their sinks.
// The zero value is not usable; construct with New or Serial.
type Engine struct {
	workers int

	mu   sync.Mutex
	cond *sync.Cond // broadcast when in-flight work drains after Close
	ran  map[string]struct{}
	// store is what SetStore recorded; nothing reads it but Store.
	store *tracestore.Store

	// Close latch: once closed, new passes, replays and ingest sessions
	// fail with ErrClosed; Close itself waits for in-flight work (begin/
	// end brackets) to drain.
	closed   bool
	inflight int

	// Counters (atomic; exposed for benchmarks and reports).
	captures   atomic.Uint64 // workload runs started
	replays    atomic.Uint64 // workload runs that fed their sinks to the end
	replayedEv atomic.Uint64 // events those runs delivered, each stream counted once

	// Delivery counters (deliver.go), written by every run and ingest
	// session.
	deliveredEv atomic.Uint64 // events delivered per sink
	maskSkips   atomic.Uint64 // (sink, batch) deliveries skipped by class mask

	// Live-ingest counters (ingest.go).
	ingestFrames  atomic.Uint64 // frames delivered by ingest sessions
	ingestEvents  atomic.Uint64 // events delivered by ingest sessions
	ingestBytes   atomic.Uint64 // raw stream bytes fed to ingest sessions
	sealedIngests atomic.Uint64 // ingest sessions sealed cleanly
}

// New builds an engine with the given worker count (<= 0 selects
// GOMAXPROCS).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers, ran: make(map[string]struct{})}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Serial builds a single-worker engine: cells execute in index order on
// the calling goroutine, the reference serial path the golden tests pin.
func Serial() *Engine { return New(1) }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetTraceDir does nothing. It exists only for the frozen benchmark
// (bench/child.go) and goes with ROADMAP item 7.
func (e *Engine) SetTraceDir(string) {}

// SetStore records st for Store and nothing else: the engine reads and
// writes no trace store. It exists only for the frozen benchmark
// (bench/child.go) and goes with ROADMAP item 7.
func (e *Engine) SetStore(st *tracestore.Store) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.store = st
}

// Store returns what SetStore recorded. It exists only for the frozen
// benchmark (bench/child.go) and goes with ROADMAP item 7.
func (e *Engine) Store() *tracestore.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// Warm does nothing but fail with ErrClosed on a closed engine: there
// is no cache to warm. It exists only for the frozen benchmark
// (bench/child.go) and goes with ROADMAP item 7.
func (e *Engine) Warm(string, CaptureFunc) error {
	if err := e.begin(); err != nil {
		return err
	}
	e.end()
	return nil
}

// begin brackets one unit of in-flight work (a pass, a fused run)
// against Close: it fails with ErrClosed once the engine is closed, and
// a successful begin must be paired with end.
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

// Close shuts the engine down: new RunPassContext, Replay and NewIngest
// calls fail with ErrClosed, and Close returns once in-flight work has
// drained. Close is idempotent and never fails.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	for e.inflight > 0 {
		e.cond.Wait()
	}
	return nil
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

// Replay runs key's workload into sink and returns the event count.
func (e *Engine) Replay(key string, capture CaptureFunc, sink trace.Sink) (uint64, error) {
	return e.ReplayAll(key, capture, []trace.Sink{sink})
}

// ReplayAll is ReplayAllContext without cancellation.
func (e *Engine) ReplayAll(key string, capture CaptureFunc, sinks []trace.Sink) (uint64, error) {
	return e.ReplayAllContext(context.Background(), key, capture, sinks)
}

// ReplayAllContext runs key's workload once, feeding every sink in one
// fused pass, and returns the count of events delivered: M
// configuration sinks cost one run, not M. The stream is cut into
// blockLen batches, and each batch goes through the serial delivery
// loop (deliver.go): a batch whose events all fall outside a sink's
// advertised class mask skips that sink, and every sink observes the
// exact event sequence a run for it alone would deliver. Without sinks
// the workload does not run.
//
// A failure stops the run at the batch that met it, with the sinks
// partially fed, so the caller must treat the cell as failed:
// cancellation, checked before the run and before every batch, wraps
// ErrCanceled; a sink that panics (or an injected sink.emit panic)
// wraps ErrSinkPanic; a workload that panics, or a capture.run fault,
// wraps ErrCaptureFailed. A run that ends cleanly counts one replay of
// its events, and key joins TraceFingerprints.
func (e *Engine) ReplayAllContext(ctx context.Context, key string, capture CaptureFunc, sinks []trace.Sink) (uint64, error) {
	if len(sinks) == 0 {
		return 0, nil
	}
	if err := e.begin(); err != nil {
		return 0, err
	}
	defer e.end()
	if ctx.Err() != nil {
		return 0, ctxErr(ctx)
	}
	e.captures.Add(1)
	b := e.newBatchSink(ctx, sinks)
	defer b.release()
	if err := runCapture(func(s trace.Sink) { capture(s); b.flush() }, b); err != nil {
		return b.n, err
	}
	e.replays.Add(1)
	e.replayedEv.Add(b.n)
	e.mu.Lock()
	e.ran[key] = struct{}{}
	e.mu.Unlock()
	return b.n, nil
}

// TraceFingerprints returns the sorted keys of every workload the engine
// has run to completion. This is what a fleet worker's provenance chain
// binds its run to: the exact set of workloads the shard executed.
func (e *Engine) TraceFingerprints() []string {
	e.mu.Lock()
	keys := make([]string, 0, len(e.ran))
	for k := range e.ran {
		keys = append(keys, k)
	}
	e.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// runCapture executes a workload run, converting its failures into
// errors: a stopRun panic from the batching sink (a failed delivery)
// comes back as the error it carries; any other panic, or an injected
// capture.run fault, wraps ErrCaptureFailed. Runs execute concurrently
// on the worker pool — each owns its address space, so no cross-run
// exclusion is needed.
func runCapture(capture CaptureFunc, sink trace.Sink) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if s, ok := r.(stopRun); ok {
				err = s.err
				return
			}
			err = captureFailed(panicError(r))
		}
	}()
	if ferr := faults.Inject(faults.CaptureRun); ferr != nil {
		return captureFailed(ferr)
	}
	capture(sink)
	return nil
}
