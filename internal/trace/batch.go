package trace

import (
	"io"

	"memotable/internal/isa"
)

// Batched event delivery. A replayed trace costs one virtual Emit call per
// event per sink; at the experiment matrix's scale — hundreds of millions
// of events fanned out to several table configurations each — that
// dispatch dominates the replay loop. BatchSink lets a decoder hand a
// whole decoded block to a sink in one call, and EmitAll adapts sinks that
// only implement the per-event interface, so batch-aware producers work
// against any Sink.
//
// Batch slices are owned by the producer and reused between calls: a sink
// must consume (or copy) the events during EmitBatch and must not retain
// the slice.

// BatchSink is a Sink that can consume a block of events in one call.
// EmitBatch(evs) must be observationally identical to calling Emit on
// each event in order.
type BatchSink interface {
	Sink
	EmitBatch(evs []Event)
}

// EmitAll delivers a block to any sink: batch-aware sinks get one
// EmitBatch call, plain sinks get one Emit per event.
func EmitAll(s Sink, evs []Event) {
	if bs, ok := s.(BatchSink); ok {
		bs.EmitBatch(evs)
		return
	}
	for _, ev := range evs {
		s.Emit(ev)
	}
}

// OpMask is a bit set of operation classes, one bit per isa.Op. It is the
// vocabulary of the short-circuit query below: a sink that only consumes
// some classes advertises them, and a fused replay loop skips handing it
// any block whose events all fall outside the mask.
type OpMask uint32

// MaskAll matches every operation class.
const MaskAll = OpMask(1<<isa.NumOps) - 1

// MaskOf builds the mask covering the given classes.
func MaskOf(ops ...isa.Op) OpMask {
	var m OpMask
	for _, op := range ops {
		m |= 1 << op
	}
	return m
}

// Has reports whether the class is in the mask.
func (m OpMask) Has(op isa.Op) bool { return m&(1<<op) != 0 }

// OpMasker is implemented by sinks that consume only some operation
// classes. A sink without the method consumes everything (SinkMask
// returns MaskAll for it).
type OpMasker interface {
	OpMask() OpMask
}

// SinkMask returns the classes a sink consumes: its advertised mask, or
// MaskAll for sinks that do not implement OpMasker.
func SinkMask(s Sink) OpMask {
	if om, ok := s.(OpMasker); ok {
		return om.OpMask()
	}
	return MaskAll
}

// EmitBatch implements BatchSink: the block is fanned out sink by sink,
// one call each, instead of event by event.
func (m Multi) EmitBatch(evs []Event) {
	for _, s := range m {
		EmitAll(s, evs)
	}
}

// OpMask implements OpMasker: a fan-out consumes the union of its sinks'
// classes.
func (m Multi) OpMask() OpMask {
	var mask OpMask
	for _, s := range m {
		mask |= SinkMask(s)
	}
	return mask
}

// EmitBatch implements BatchSink: the whole block is tallied in one call.
func (c *Counter) EmitBatch(evs []Event) {
	for _, ev := range evs {
		c.Counts[ev.Op]++
	}
}

// EmitBatch implements BatchSink.
func (r *Recorder) EmitBatch(evs []Event) { r.Events = append(r.Events, evs...) }

// defaultBatchLen sizes the reusable decode block of ReplayBatch: 4096
// events (96 KiB) sits past the point where per-event dispatch overhead
// is amortized while staying L2-resident.
const defaultBatchLen = 4096

// ReadBatch decodes up to cap(dst) events (at least one; a default block
// if dst has no capacity) into dst[:0] and returns the filled slice. At a
// clean end of stream it returns (nil, io.EOF); a short batch before EOF
// is not an error. On corruption it returns the events decoded before
// the defect with the error, which every later call returns alone. The
// returned slice aliases dst's backing array, so callers own its reuse.
func (r *Reader) ReadBatch(dst []Event) ([]Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	if cap(dst) == 0 {
		dst = make([]Event, 0, defaultBatchLen)
	}
	var err error
	if r.version == formatVersionV2 {
		dst, err = r.readBatchV2(dst[:0])
	} else {
		dst, err = r.readBatchV1(dst[:0])
	}
	if err != nil && err != io.EOF {
		r.err = err
	}
	return dst, err
}

// readBatchV1 fills dst event by event from a v1 stream.
func (r *Reader) readBatchV1(dst []Event) ([]Event, error) {
	for len(dst) < cap(dst) {
		ev, err := r.nextV1()
		if err != nil {
			if err == io.EOF && len(dst) > 0 {
				return dst, nil
			}
			if err == io.EOF {
				return nil, io.EOF
			}
			return dst, err
		}
		dst = append(dst, ev)
	}
	return dst, nil
}

// ReplayBatch streams every remaining event into sink in decoded blocks,
// returning the event count. It is Replay with block delivery: batch-aware
// sinks see one EmitBatch per block instead of one Emit per event, and
// the block buffer is reused between calls. Event order is identical to
// Replay's.
func (r *Reader) ReplayBatch(sink Sink) (uint64, error) {
	buf := make([]Event, 0, defaultBatchLen)
	var n uint64
	for {
		batch, err := r.ReadBatch(buf)
		if err == io.EOF {
			return n, nil
		}
		if len(batch) > 0 {
			EmitAll(sink, batch)
			n += uint64(len(batch))
		}
		if err != nil {
			return n, err
		}
		buf = batch
	}
}
