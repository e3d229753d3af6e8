package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"slices"
	"testing"

	"memotable/internal/isa"
)

// seedTraceEvents is the pinned event count of testdata/vdiff-16.mtrc,
// the v1 capture every compat test replays.
const seedTraceEvents = 9984

// randomEvents builds a deterministic event stream big enough to span
// several v2 frames (n=60000 at ~3-21 bytes/event crosses 64 KiB).
func randomEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		ev := Event{Op: isa.Op(rng.Intn(int(isa.NumOps)))}
		// Mix small operands (short varints) with full-width ones.
		if rng.Intn(2) == 0 {
			ev.A, ev.B = uint64(rng.Intn(256)), uint64(rng.Intn(64))
		} else {
			ev.A, ev.B = rng.Uint64(), rng.Uint64()
		}
		events[i] = ev
	}
	return events
}

// encodeV2 runs events through WriterV2 and returns the wire bytes.
func encodeV2(t testing.TB, events []Event, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, compress)
	if err != nil {
		t.Fatalf("NewWriterV2: %v", err)
	}
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("writer count %d, emitted %d", w.Count(), len(events))
	}
	return buf.Bytes()
}

// decodeAll replays a stream into memory.
func decodeAll(t testing.TB, data []byte) []Event {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var rec Recorder
	if _, err := r.ReplayBatch(&rec); err != nil {
		t.Fatalf("ReplayBatch: %v", err)
	}
	return rec.Events
}

// next reads one event through a one-event batch: a reader driven at
// the per-event pace.
func next(r *Reader) (Event, error) {
	var one [1]Event
	batch, err := r.ReadBatch(one[:0])
	if len(batch) == 1 {
		return batch[0], nil
	}
	return Event{}, err
}

// readEach drains r one event at a time and returns the events read
// and the error that ended the stream, nil at a clean end.
func readEach(r *Reader) ([]Event, error) {
	var evs []Event
	for {
		ev, err := next(r)
		if err == io.EOF {
			return evs, nil
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
}

func TestV2RoundTripMultiFrame(t *testing.T) {
	events := randomEvents(60000, 11)
	for _, compress := range []bool{false, true} {
		data := encodeV2(t, events, compress)
		if len(data) <= frameHeaderLen+6 {
			t.Fatalf("compress=%v: suspiciously small encoding (%d bytes)", compress, len(data))
		}
		got := decodeAll(t, data)
		if len(got) != len(events) {
			t.Fatalf("compress=%v: decoded %d events, wrote %d", compress, len(got), len(events))
		}
		for i := range got {
			if got[i] != events[i] {
				t.Fatalf("compress=%v: event %d: %+v != %+v", compress, i, got[i], events[i])
			}
		}
		n, err := VerifyBytes(data)
		if err != nil || n != uint64(len(events)) {
			t.Fatalf("compress=%v: VerifyBytes = %d,%v", compress, n, err)
		}
	}
}

func TestV2EmptyStream(t *testing.T) {
	data := encodeV2(t, nil, false)
	if got := decodeAll(t, data); len(got) != 0 {
		t.Fatalf("decoded %d events from empty stream", len(got))
	}
	if n, err := VerifyBytes(data); err != nil || n != 0 {
		t.Fatalf("VerifyBytes = %d,%v", n, err)
	}
}

// TestV1SeedTraceCompat pins the v1 reading path: the checked-in capture
// must keep replaying to the same event count, and re-encoding it as v2
// (both plain and compressed) must round-trip the identical stream.
func TestV1SeedTraceCompat(t *testing.T) {
	seed := readSeedTrace(t)
	if seed[4] != formatVersion {
		t.Fatalf("seed trace is version %d, want v1", seed[4])
	}
	v1 := decodeAll(t, seed)
	if len(v1) != seedTraceEvents {
		t.Fatalf("v1 seed replayed %d events, want %d", len(v1), seedTraceEvents)
	}
	if n, err := VerifyBytes(seed); err != nil || n != seedTraceEvents {
		t.Fatalf("VerifyBytes(v1) = %d,%v", n, err)
	}
	for _, compress := range []bool{false, true} {
		v2 := decodeAll(t, encodeV2(t, v1, compress))
		if len(v2) != len(v1) {
			t.Fatalf("compress=%v: v2 re-encoding replayed %d events, want %d", compress, len(v2), len(v1))
		}
		for i := range v2 {
			if v2[i] != v1[i] {
				t.Fatalf("compress=%v: event %d diverged across v1->v2: %+v != %+v", compress, i, v2[i], v1[i])
			}
		}
	}
}

// TestV2RejectsCorruption walks the classified failure modes: every one
// must surface ErrBadTrace, and flipping any single byte of a valid
// stream must never produce a quietly wrong decode of v2 framing.
func TestV2RejectsCorruption(t *testing.T) {
	events := randomEvents(500, 23)
	data := encodeV2(t, events, false)

	check := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		d := mutate(append([]byte(nil), data...))
		r, err := NewReader(bytes.NewReader(d))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("%s: unclassified NewReader error %v", name, err)
			}
			return
		}
		if _, err := r.ReplayBatch(&Recorder{}); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("%s: ReplayBatch error = %v, want ErrBadTrace", name, err)
		}
	}

	check("unknown flags", func(d []byte) []byte { d[5] |= 0x80; return d })
	check("future version", func(d []byte) []byte { d[4] = 3; return d })
	check("payload bit flip", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d })
	check("crc field flip", func(d []byte) []byte { d[6+12] ^= 0x01; return d })
	check("torn frame header", func(d []byte) []byte { return d[:6+frameHeaderLen-3] })
	check("torn payload", func(d []byte) []byte { return d[:len(d)-7] })
	check("oversized raw length", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[6:], maxFrameRaw+1)
		return d
	})
	check("zero event count", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[6+8:], 0)
		return d
	})
	check("event count beyond payload", func(d []byte) []byte {
		binary.LittleEndian.PutUint32(d[6+8:], 1<<30)
		return d
	})
	check("trailing garbage after frame", func(d []byte) []byte {
		return append(d, 0xde, 0xad)
	})

	// Compressed stream corruption: CRC guards the stored payload, so a
	// flipped compressed byte is caught before inflate ever runs.
	cdata := encodeV2(t, events, true)
	cd := append([]byte(nil), cdata...)
	cd[len(cd)/2] ^= 0x10
	r, err := NewReader(bytes.NewReader(cd))
	if err == nil {
		_, err = r.ReplayBatch(&Recorder{})
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("compressed flip: error = %v, want ErrBadTrace", err)
	}
}

// TestV2TruncationAlwaysClean cuts a multi-frame stream at every offset:
// the reader must either finish a clean (short) decode at a frame
// boundary or report ErrBadTrace — never panic, hang, or return an
// unclassified error.
func TestV2TruncationAlwaysClean(t *testing.T) {
	data := encodeV2(t, randomEvents(40000, 5), false)
	for cut := 0; cut < len(data); cut += 1 + cut/9 {
		r, err := NewReader(bytes.NewReader(data[:cut]))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("cut %d: unclassified NewReader error %v", cut, err)
			}
			continue
		}
		if _, err := r.ReplayBatch(&Recorder{}); err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut %d: unclassified ReplayBatch error %v", cut, err)
		}
		if _, err := VerifyBytes(data[:cut]); err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("cut %d: unclassified VerifyBytes error %v", cut, err)
		}
	}
}

// TestV2ReaderCountMatchesReplay keeps Reader.Count coherent with the
// events handed out one at a time, across frame boundaries.
func TestV2ReaderCountMatchesReplay(t *testing.T) {
	data := encodeV2(t, randomEvents(30000, 3), true)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := readEach(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := uint64(len(evs)); n != 30000 || r.Count() != n {
		t.Fatalf("decoded %d, reader count %d", n, r.Count())
	}
}

// The writer lifecycle contract: Flush is a re-arming mid-stream
// checkpoint — events emitted after it open a new frame that the next
// Flush or Close seals — and Close latches the writer so a late Emit is a
// loud error, not a silently lost frame.
func TestV2WriterReArmsAfterFlush(t *testing.T) {
	events := randomEvents(500, 11)
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, false)
	if err != nil {
		t.Fatalf("NewWriterV2: %v", err)
	}
	// Interleave Emits with mid-stream Flushes, including a double Flush
	// (second one finds no open frame) — the live-ingest producer pattern.
	for i, ev := range events {
		w.Emit(ev)
		if i%97 == 0 {
			if err := w.Flush(); err != nil {
				t.Fatalf("mid-stream Flush at %d: %v", i, err)
			}
			if i%194 == 0 {
				if err := w.Flush(); err != nil {
					t.Fatalf("double Flush at %d: %v", i, err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(events))
	}
	got := decodeAll(t, buf.Bytes())
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d: events emitted after a Flush were lost", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestV2WriterEmitAfterCloseLatches(t *testing.T) {
	events := randomEvents(10, 12)
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, false)
	if err != nil {
		t.Fatalf("NewWriterV2: %v", err)
	}
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close is not idempotent: %v", err)
	}
	wire := append([]byte(nil), buf.Bytes()...)

	w.Emit(events[0])
	if !errors.Is(w.Err(), ErrWriterClosed) {
		t.Fatalf("Err after post-Close Emit = %v, want ErrWriterClosed", w.Err())
	}
	if !errors.Is(w.Close(), ErrWriterClosed) {
		t.Fatalf("Close after post-Close Emit should surface ErrWriterClosed")
	}
	if w.Count() != uint64(len(events)) {
		t.Fatalf("Count = %d after rejected Emit, want %d", w.Count(), len(events))
	}
	if !bytes.Equal(buf.Bytes(), wire) {
		t.Fatalf("post-Close Emit changed the wire bytes")
	}
	// The sealed stream still decodes cleanly to exactly the pre-Close
	// events.
	if got := decodeAll(t, buf.Bytes()); len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
}

// A mid-stream Flush must leave the wire a readable prefix: every event
// emitted before the Flush is decodable from the bytes written so far.
func TestV2FlushedPrefixIsReadable(t *testing.T) {
	for _, compress := range []bool{false, true} {
		events := randomEvents(3000, 13)
		var buf bytes.Buffer
		w, err := NewWriterV2(&buf, compress)
		if err != nil {
			t.Fatalf("NewWriterV2: %v", err)
		}
		for _, ev := range events[:1700] {
			w.Emit(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		prefix := append([]byte(nil), buf.Bytes()...)
		if got := decodeAll(t, prefix); len(got) != 1700 {
			t.Fatalf("compress=%v: flushed prefix decodes %d events, want 1700", compress, len(got))
		}
		for _, ev := range events[1700:] {
			w.Emit(ev)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if got := decodeAll(t, buf.Bytes()); len(got) != len(events) {
			t.Fatalf("compress=%v: full stream decodes %d events, want %d", compress, len(got), len(events))
		}
	}
}

// v2Frame builds one uncompressed v2 frame around a hand-made payload
// declaring events, with a valid CRC, so a test can reach the event
// decoder with a payload no writer would produce.
func v2Frame(payload []byte, events uint32) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[8:], events)
	crc := crc32.Update(0, castagnoli, hdr[:12])
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Update(crc, castagnoli, payload))
	return append(hdr[:], payload...)
}

// TestReaderErrorsAreSticky checks that once a Reader reports corruption
// every later call, whatever its batch size, returns the error again and delivers
// nothing — no event twice, no event from past the defect, and no count
// moving on. Two defects: a CRC-valid frame of three good events and
// then one whose operand B varint runs past ten bytes (the first batch
// delivers the three events), and a first frame failing its CRC with a
// good frame after it.
func TestReaderErrorsAreSticky(t *testing.T) {
	good := []Event{{Op: isa.OpFMul, A: 100, B: 200}, {Op: isa.OpIMul, A: 3, B: 4}, {Op: isa.OpFDiv, A: 5, B: 6}}
	var payload []byte
	for _, ev := range good {
		payload = append(payload, byte(ev.Op))
		payload = binary.AppendUvarint(payload, ev.A)
		payload = binary.AppendUvarint(payload, ev.B)
	}
	header := []byte{'M', 'T', 'R', 'C', formatVersionV2, 0}
	overflowB := append(append([]byte(nil), payload...), byte(isa.OpFMul), 7)
	overflowB = append(overflowB, bytes.Repeat([]byte{0x80}, 11)...)
	overflowB = append(overflowB, 0x01)
	badCRC := v2Frame(payload, 3)
	badCRC[12] ^= 0xff

	for _, tc := range []struct {
		name  string
		data  []byte
		first []Event // delivered with the error by the first batch
	}{
		{"operand B overflow", append(append([]byte(nil), header...), v2Frame(overflowB, 4)...), good},
		{"frame CRC", slices.Concat(header, badCRC, v2Frame(payload, 3)), nil},
	} {
		r, err := NewReader(bytes.NewReader(tc.data))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		batch, err := r.ReadBatch(make([]Event, 0, 16))
		if !errors.Is(err, ErrBadTrace) || !slices.Equal(batch, tc.first) {
			t.Fatalf("%s: first batch = %v, %v; want %v and ErrBadTrace", tc.name, batch, err, tc.first)
		}
		for i := 0; i < 2; i++ {
			if batch, err := r.ReadBatch(make([]Event, 0, 16)); len(batch) != 0 || !errors.Is(err, ErrBadTrace) {
				t.Fatalf("%s: later batch = %v, %v; want nothing and ErrBadTrace", tc.name, batch, err)
			}
			if ev, err := next(r); !errors.Is(err, ErrBadTrace) {
				t.Fatalf("%s: later one-event read = %v, %v; want ErrBadTrace", tc.name, ev, err)
			}
		}
		if r.Count() != uint64(len(tc.first)) {
			t.Fatalf("%s: Count() = %d after the error, want %d", tc.name, r.Count(), len(tc.first))
		}
	}
}

// referenceV2 encodes events straight from the format description in
// filev2.go, one buffer per frame: a frame is sealed once its raw
// payload reaches frameTarget, and at the end of the stream.
func referenceV2(t *testing.T, events []Event, compress bool) []byte {
	t.Helper()
	var flags byte
	if compress {
		flags = flagFlate
	}
	out := []byte{'M', 'T', 'R', 'C', formatVersionV2, flags}
	var raw []byte
	var n uint32
	seal := func() {
		stored := raw
		if compress {
			var c bytes.Buffer
			fw, err := flate.NewWriter(&c, flate.BestSpeed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			stored = c.Bytes()
		}
		hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(raw)))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(stored)))
		hdr = binary.LittleEndian.AppendUint32(hdr, n)
		crc := crc32.Update(crc32.Update(0, castagnoli, hdr), castagnoli, stored)
		out = append(binary.LittleEndian.AppendUint32(append(out, hdr...), crc), stored...)
		raw, n = nil, 0
	}
	for _, ev := range events {
		raw = append(raw, byte(ev.Op))
		raw = binary.AppendUvarint(raw, ev.A)
		raw = binary.AppendUvarint(raw, ev.B)
		if n++; len(raw) >= frameTarget {
			seal()
		}
	}
	if n > 0 {
		seal()
	}
	return out
}

// TestWriterV2MatchesReference pins the encoder's output: WriterV2 must
// write exactly the bytes the format description gives, plain and
// compressed, and the plain encoding of a fixed stream keeps its
// recorded digest.
func TestWriterV2MatchesReference(t *testing.T) {
	events := randomEvents(150000, 7)
	for _, compress := range []bool{false, true} {
		if got, want := encodeV2(t, events, compress), referenceV2(t, events, compress); !bytes.Equal(got, want) {
			t.Fatalf("compress=%v: WriterV2 wrote %d bytes, the reference %d, and they differ", compress, len(got), len(want))
		}
	}
	sum := sha256.Sum256(encodeV2(t, events, false))
	if got, want := hex.EncodeToString(sum[:]), "17fcfe8ade79930a3eb43d49391fb72dda7f3f7d0043ceb955c810bb452cb152"; got != want {
		t.Fatalf("plain encoding digest %s, want %s", got, want)
	}
}
