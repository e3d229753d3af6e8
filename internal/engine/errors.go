package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// The engine's failure model. Every fault on a compute edge is reported
// as a typed *CellError in the PassReport of the pass that observed it;
// nothing is retried, because a run that failed may already have fed
// its sinks part of the stream. The sentinels below form the
// errors.Is-able taxonomy callers classify against; DESIGN.md §10 maps
// every injection point to its sentinel.

// Sentinel errors of the failure taxonomy.
var (
	// ErrCanceled marks work abandoned because the pass context was
	// canceled or its deadline expired.
	ErrCanceled = errors.New("engine: pass canceled")
	// ErrCaptureFailed marks a workload whose run returned a fault or
	// panicked.
	ErrCaptureFailed = errors.New("engine: workload capture failed")
	// ErrSinkPanic marks a measurement sink that panicked while a
	// replay or an ingest fed it; every sink fed by that stream may have
	// observed it torn.
	ErrSinkPanic = errors.New("engine: sink panicked")
	// ErrClosed marks work submitted to an engine after Close: new
	// passes and replays are refused.
	ErrClosed = errors.New("engine: closed")
)

// CellError attributes one failure to the workload cell that observed
// it. Key is the workload's key, Stage the execution edge that
// failed ("capture", "replay", "sink" or "schedule"), and Err the
// underlying cause. Err wraps one of the taxonomy sentinels, with one
// exception: an injected engine.sink.emit error, at stage "replay",
// wraps only faults.ErrInjected.
type CellError struct {
	Key   string
	Stage string
	Err   error
}

// Error implements error.
func (c *CellError) Error() string {
	return fmt.Sprintf("workload %q: %s: %v", c.Key, c.Stage, c.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As classification.
func (c *CellError) Unwrap() error { return c.Err }

// PassReport is the degraded-mode outcome of one RunPassContext: which
// workload cells failed and why, and whether the pass was cut short by
// cancellation. A report with no errors is a fully successful pass.
type PassReport struct {
	mu sync.Mutex
	// Canceled is set when the pass context was done before every
	// workload replayed.
	Canceled bool
	// Errors holds one entry per failed workload, sorted by key. A
	// workload appears at most once however many subscriptions share it.
	Errors []*CellError
}

// add records a cell failure (workloads replaying concurrently report in
// parallel).
func (r *PassReport) add(ce *CellError) {
	r.mu.Lock()
	r.Errors = append(r.Errors, ce)
	r.mu.Unlock()
}

// seal sorts the errors by workload key so reports are deterministic.
func (r *PassReport) seal() {
	sort.Slice(r.Errors, func(i, j int) bool { return r.Errors[i].Key < r.Errors[j].Key })
}

// Err returns the first cell error, or nil for a clean pass — the
// fail-fast view legacy RunPass callers see.
func (r *PassReport) Err() error {
	if len(r.Errors) == 0 {
		return nil
	}
	return r.Errors[0]
}

// Failed reports whether the named workload failed in this pass.
func (r *PassReport) Failed(key string) bool {
	for _, ce := range r.Errors {
		if ce.Key == key {
			return true
		}
	}
	return false
}

// FailedKeys lists the failed workload keys in sorted order.
func (r *PassReport) FailedKeys() []string {
	keys := make([]string, len(r.Errors))
	for i, ce := range r.Errors {
		keys[i] = ce.Key
	}
	return keys
}

// panicError converts a recovered panic value into an error, preserving
// an error-typed panic (an injected *faults.Fault, say) as the cause.
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("panic: %w", err)
	}
	return fmt.Errorf("panic: %v", r)
}

// captureFailed wraps a workload's own failure in ErrCaptureFailed.
func captureFailed(err error) error {
	return fmt.Errorf("%w: %w", ErrCaptureFailed, err)
}

// ctxErr wraps a context's termination in ErrCanceled so both
// errors.Is(err, ErrCanceled) and errors.Is(err, context.Canceled) (or
// DeadlineExceeded) classify it.
func ctxErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}
