package engine

import (
	"context"
	"fmt"
	"io"
	"sync"

	"memotable/internal/faults"
	"memotable/internal/trace"
)

// Delivery. Every event batch that reaches a measurement sink — a
// decoded block, a batch decoded from the memory tier or a disk-tier
// file, a live ingest frame — goes through deliver, serially, on the
// goroutine that replays. Each sink therefore observes its stream in
// order from one goroutine, and cancellation, the sink.emit fault point
// and the delivery counters behave the same on every path.

// deliver feeds one batch to every sink whose class mask meets the
// batch's mask, in sink order. It checks ctx and fires the sink.emit
// injection point first: an error from either means nothing of this
// batch was delivered, but earlier batches of the stream may have been,
// so the caller must treat the cell as failed.
func (e *Engine) deliver(ctx context.Context, sinks []trace.Sink, masks []trace.OpMask, evs []trace.Event, mask trace.OpMask) error {
	if ctx.Err() != nil {
		return ctxErr(ctx)
	}
	if err := faults.Inject(faults.SinkEmit); err != nil {
		return fmt.Errorf("replay delivery: %w", err)
	}
	fed := 0
	for i, s := range sinks {
		if masks[i]&mask != 0 {
			trace.EmitAll(s, evs)
			fed++
		}
	}
	e.deliveredEv.Add(uint64(fed) * uint64(len(evs)))
	e.maskSkips.Add(uint64(len(sinks) - fed))
	return nil
}

// batchMask is the union of a batch's event classes.
func batchMask(evs []trace.Event) trace.OpMask {
	var mask trace.OpMask
	for i := range evs {
		mask |= 1 << evs[i].Op
	}
	return mask
}

// emitBlocks delivers decoded blocks in order and returns the stream's
// event count up to the first failure.
func (e *Engine) emitBlocks(ctx context.Context, blocks []traceBlock, sinks []trace.Sink, masks []trace.OpMask) (uint64, error) {
	var n uint64
	for i := range blocks {
		b := &blocks[i]
		if err := e.deliver(ctx, sinks, masks, b.events, b.mask); err != nil {
			return n, err
		}
		n += uint64(len(b.events))
	}
	return n, nil
}

// batchBufs recycles replayBytes's decode buffers. Batches are as long
// as decoded blocks, so both paths cut a stream at the same events, and
// a fresh 192 KiB buffer per replay raised a cold tiny pass's peak RSS
// by about 15 MiB.
var batchBufs = sync.Pool{New: func() any {
	buf := make([]trace.Event, 0, blockLen)
	return &buf
}}

// replaySettled feeds a settled entry's stream — memory or disk tier
// alike — to every sink and returns the count of events delivered. A
// key with decoded blocks replays them without reading its stream.
// Otherwise the stream is read once (readSnapshot): on the entry's
// second replay it is decoded into blocks first, budget permitting
// (blocksFor, buildBlocks), and otherwise decoded and delivered batch
// by batch (replayBytes). A failure to read the stream comes back as
// readErr, after any events decoded before the defect were delivered; a
// failed delivery (cancellation, an injected sink.emit fault) comes
// back as err. Callers treat the two differently: only a read failure
// says anything about the entry's storage.
func (e *Engine) replaySettled(ctx context.Context, acct BudgetAccountant, key string, snap entrySnapshot, sinks []trace.Sink, masks []trace.OpMask) (n uint64, readErr, err error) {
	blocks, claim := e.blocksFor(key, snap)
	if claim != nil {
		defer e.unclaim(claim)
	}
	if blocks == nil {
		readErr = e.readSnapshot(snap, func(segs [][]byte, events uint64) (rerr error) {
			if claim != nil {
				if blocks, rerr = e.buildBlocks(acct, claim, snap, segs, events); blocks != nil || rerr != nil {
					return rerr
				}
			}
			rerr, err = e.replayBytes(ctx, segs, events, sinks, masks, &n)
			return rerr
		})
		if readErr != nil || blocks == nil {
			return n, readErr, err
		}
	}
	n, err = e.emitBlocks(ctx, blocks, sinks, masks)
	return n, nil, err
}

// replayBytes decodes a stream of events events, held as segments, in
// blockLen batches and delivers each one, counting the events delivered
// in *n as it goes: a fault on a mapped store entry unwinds the decode
// as a panic (tracestore.ReadEntry), and the count must survive it. A
// failure to decode the stream, or a count that is not events, comes
// back as readErr, after the events decoded before the defect were
// delivered; a failed delivery comes back as err.
func (e *Engine) replayBytes(ctx context.Context, segs [][]byte, events uint64, sinks []trace.Sink, masks []trace.OpMask, n *uint64) (readErr, err error) {
	buf := batchBufs.Get().(*[]trace.Event)
	defer batchBufs.Put(buf)
	r, rerr := trace.NewSegmentReader(segs)
	if rerr != nil {
		return rerr, nil
	}
	for {
		batch, rerr := r.ReadBatch(*buf)
		if rerr == io.EOF {
			break
		}
		if len(batch) > 0 {
			if err := e.deliver(ctx, sinks, masks, batch, batchMask(batch)); err != nil {
				return nil, err
			}
			*n += uint64(len(batch))
		}
		if rerr != nil {
			return rerr, nil
		}
	}
	if *n != events {
		return fmt.Errorf("replayed %d of %d events", *n, events), nil
	}
	return nil, nil
}
