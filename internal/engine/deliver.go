package engine

import (
	"context"
	"fmt"
	"sync"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Delivery. Every event batch that reaches a measurement sink — a batch
// of a running workload's stream, a live ingest frame — goes through
// deliver, serially, on the goroutine that produced it. Each sink
// therefore observes its stream in order from one goroutine, and
// cancellation, the sink.emit fault point and sink-panic isolation
// behave the same on every path. Only a workload run counts its
// deliveries in the engine's counters.

// blockLen is the event length of the batches a workload's stream is
// cut into: 8192 events (192 KiB) keeps a batch L2-resident while
// amortizing per-batch dispatch across the sinks.
const blockLen = 8192

// deliver feeds one batch to every sink whose class mask meets the
// batch's mask, in sink order, and returns how many sinks it fed. It
// checks ctx and fires the sink.emit injection point first: an error
// from either means nothing of this batch was delivered, but earlier
// batches of the stream may have been, so the caller must treat the
// stream as failed. A sink panicking mid-batch, or an injected
// sink.emit panic, comes back wrapping ErrSinkPanic.
func deliver(ctx context.Context, sinks []trace.Sink, masks []trace.OpMask, evs []trace.Event) (fed int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %w", ErrSinkPanic, panicError(r))
		}
	}()
	if ctx.Err() != nil {
		return 0, ctxErr(ctx)
	}
	if err := faults.Inject(faults.SinkEmit); err != nil {
		return 0, fmt.Errorf("replay delivery: %w", err)
	}
	mask := batchMask(evs)
	for i, s := range sinks {
		if masks[i]&mask != 0 {
			trace.EmitAll(s, evs)
			fed++
		}
	}
	return fed, nil
}

// batchMask is the union of a batch's event classes.
func batchMask(evs []trace.Event) trace.OpMask {
	var mask trace.OpMask
	for i := range evs {
		mask |= 1 << evs[i].Op
	}
	return mask
}

// batchBufs recycles the batching sinks' buffers: a fresh 192 KiB
// buffer per run would grow a pass's heap by one per workload.
var batchBufs = sync.Pool{New: func() any {
	buf := make([]trace.Event, 0, blockLen)
	return &buf
}}

// stopRun is the panic a batchSink raises to stop the workload feeding
// it once a delivery has failed; runCapture recovers it and returns err.
type stopRun struct{ err error }

// batchSink is the sink a workload runs into: it cuts the stream into
// blockLen batches, hands each to deliver, and counts each delivered
// batch in the engine's delivery counters and its events in n. A
// delivery that fails — the context is done, a sink or the sink.emit
// point panics, sink.emit injects an error — stops the workload at once
// with a stopRun panic, so a canceled run ends at its next batch
// instead of running to its last event.
type batchSink struct {
	e     *Engine
	ctx   context.Context
	sinks []trace.Sink
	masks []trace.OpMask
	buf   *[]trace.Event
	n     uint64
}

func (e *Engine) newBatchSink(ctx context.Context, sinks []trace.Sink) *batchSink {
	return &batchSink{e: e, ctx: ctx, sinks: sinks, masks: trace.SinkMasks(sinks),
		buf: batchBufs.Get().(*[]trace.Event)}
}

// release returns the sink's buffer to the pool.
func (b *batchSink) release() {
	*b.buf = (*b.buf)[:0]
	batchBufs.Put(b.buf)
	b.buf = nil
}

// Emit implements trace.Sink.
func (b *batchSink) Emit(ev trace.Event) {
	*b.buf = append(*b.buf, ev)
	if len(*b.buf) == blockLen {
		b.flush()
	}
}

// EmitBatch implements trace.BatchSink, cutting evs at the same batch
// boundaries a run of Emit calls would.
func (b *batchSink) EmitBatch(evs []trace.Event) {
	for len(evs) > 0 {
		buf := *b.buf
		k := copy(buf[len(buf):blockLen], evs)
		*b.buf = buf[:len(buf)+k]
		evs = evs[k:]
		if len(*b.buf) == blockLen {
			b.flush()
		}
	}
}

// flush delivers the buffered batch, or stops the workload with the
// delivery's failure.
func (b *batchSink) flush() {
	evs := *b.buf
	if len(evs) == 0 {
		return
	}
	fed, err := deliver(b.ctx, b.sinks, b.masks, evs)
	if err != nil {
		panic(stopRun{err})
	}
	b.e.deliveredEv.Add(uint64(fed) * uint64(len(evs)))
	b.e.maskSkips.Add(uint64(len(b.sinks) - fed))
	b.n += uint64(len(evs))
	*b.buf = evs[:0]
}
