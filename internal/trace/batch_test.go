package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"memotable/internal/isa"
)

// encodeV1 renders events as a version-1 stream: the header, then
// {op byte, a uvarint, b uvarint} per event. The package only reads v1,
// so tests that need v1 input build it here.
func encodeV1(events []Event) []byte {
	buf := []byte{magic[0], magic[1], magic[2], magic[3], formatVersion}
	for _, ev := range events {
		buf = append(buf, byte(ev.Op))
		buf = binary.AppendUvarint(buf, ev.A)
		buf = binary.AppendUvarint(buf, ev.B)
	}
	return buf
}

// plainRecorder records events without implementing BatchSink, so batch
// producers must go through the per-event adapter path for it.
type plainRecorder struct {
	events []Event
}

func (p *plainRecorder) Emit(ev Event) { p.events = append(p.events, ev) }

// batchRecorder records events and the block sizes they arrived in.
type batchRecorder struct {
	events  []Event
	batches []int
}

func (b *batchRecorder) Emit(ev Event) { b.events = append(b.events, ev) }
func (b *batchRecorder) EmitBatch(evs []Event) {
	b.events = append(b.events, evs...)
	b.batches = append(b.batches, len(evs))
}

// encodings returns every wire format a trace can take.
func encodings(t *testing.T, events []Event) map[string][]byte {
	t.Helper()
	return map[string][]byte{
		"v1":           encodeV1(events),
		"v2":           encodeV2(t, events, false),
		"v2compressed": encodeV2(t, events, true),
	}
}

// TestReplayBatchMatchesReplay pins the batched decoder to the per-event
// pace: for every format version, ReplayBatch must deliver the exact event
// sequence one-event reads deliver — through EmitBatch for batch-aware
// sinks and through the Emit adapter for plain sinks.
func TestReplayBatchMatchesReplay(t *testing.T) {
	events := randomEvents(60000, 41)
	for name, data := range encodings(t, events) {
		t.Run(name, func(t *testing.T) {
			r0, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			want, err := readEach(r0)
			if err != nil || !reflect.DeepEqual(want, events) {
				t.Fatalf("per-event read diverged from source events: %v", err)
			}

			r, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var br batchRecorder
			n, err := r.ReplayBatch(&br)
			if err != nil {
				t.Fatalf("ReplayBatch: %v", err)
			}
			if n != uint64(len(events)) {
				t.Fatalf("ReplayBatch count %d, want %d", n, len(events))
			}
			if len(br.batches) == 0 {
				t.Fatal("batch sink never received an EmitBatch call")
			}
			if !reflect.DeepEqual(br.events, want) {
				t.Fatal("batched replay diverged from per-event replay")
			}

			r2, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			var pr plainRecorder
			if _, err := r2.ReplayBatch(&pr); err != nil {
				t.Fatalf("ReplayBatch (plain sink): %v", err)
			}
			if !reflect.DeepEqual(pr.events, want) {
				t.Fatal("adapter path diverged from per-event replay")
			}
		})
	}
}

// TestReadBatchResumesMidFrame drives ReadBatch with a capacity that does
// not divide the v2 frame's event count, so batches straddle frame
// boundaries, and checks the reassembled stream.
func TestReadBatchResumesMidFrame(t *testing.T) {
	events := randomEvents(30000, 7)
	data := encodeV2(t, events, false)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Event, 0, 777)
	var got []Event
	for {
		batch, err := r.ReadBatch(buf)
		if err != nil {
			break
		}
		got = append(got, batch...)
		buf = batch
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("mid-frame resumed stream diverged (%d events, want %d)", len(got), len(events))
	}
}

// TestReplayBatchCorruption checks that a corrupt v2 stream fails the
// batched decoder exactly as it fails one-event reads: with ErrBadTrace
// and with only verified frames' events delivered.
func TestReplayBatchCorruption(t *testing.T) {
	events := randomEvents(60000, 9)
	data := encodeV2(t, events, false)
	data[len(data)/2] ^= 0x40 // flip a bit in some frame payload

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	per, perErr := readEach(r)

	r2, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var bat batchRecorder
	_, batErr := r2.ReplayBatch(&bat)

	if (perErr == nil) != (batErr == nil) {
		t.Fatalf("error disagreement: per-event %v, batch %v", perErr, batErr)
	}
	if !reflect.DeepEqual(bat.events, per) {
		t.Fatalf("delivered prefixes diverge: %d batch events vs %d per-event",
			len(bat.events), len(per))
	}
}

// TestMultiBatchFanOut checks the batched fan-out reaches both batch-aware
// and plain sinks with the same stream.
func TestMultiBatchFanOut(t *testing.T) {
	events := randomEvents(5000, 3)
	var br batchRecorder
	var pr plainRecorder
	m := Multi{&br, &pr}
	EmitAll(m, events)
	if !reflect.DeepEqual(br.events, events) || !reflect.DeepEqual(pr.events, events) {
		t.Fatal("batched fan-out diverged from the input block")
	}
	if len(br.batches) != 1 {
		t.Fatalf("batch-aware sink saw %d calls, want 1", len(br.batches))
	}
}

// TestCounterBatch checks the batched tally equals the per-event one.
func TestCounterBatch(t *testing.T) {
	events := randomEvents(5000, 13)
	var per, bat Counter
	for _, ev := range events {
		per.Emit(ev)
	}
	bat.EmitBatch(events)
	if per.Counts != bat.Counts {
		t.Fatal("batched counter diverged from per-event counter")
	}
}

// maskedSink is a sink that advertises a fixed class mask.
type maskedSink struct {
	Counter
	mask OpMask
}

func (s *maskedSink) OpMask() OpMask { return s.mask }

// TestOpMasks pins the short-circuit query: masked sinks advertise their
// classes, fan-outs the union, and unknown sinks everything.
func TestOpMasks(t *testing.T) {
	var c Counter // no mask: consumes everything
	if SinkMask(&c) != MaskAll {
		t.Fatal("maskless sink must advertise MaskAll")
	}
	f := &maskedSink{mask: MaskOf(isa.OpFMul, isa.OpFDiv)}
	if m := SinkMask(f); m != MaskOf(isa.OpFMul, isa.OpFDiv) {
		t.Fatalf("masked sink mask %b", m)
	}
	// A fan-out unions.
	multi := Multi{f, &maskedSink{mask: MaskOf(isa.OpIMul)}}
	if m := SinkMask(multi); m != MaskOf(isa.OpFMul, isa.OpFDiv, isa.OpIMul) {
		t.Fatalf("multi mask %b", m)
	}
	if !MaskOf(isa.OpFMul).Has(isa.OpFMul) || MaskOf(isa.OpFMul).Has(isa.OpFDiv) {
		t.Fatal("OpMask.Has misreports membership")
	}
}
