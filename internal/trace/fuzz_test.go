package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"memotable/internal/isa"
)

// readSeedTrace loads the checked-in capture of a real workload (vdiff at
// 16x16, recorded in format v1 through the public Capture API before it
// wrote v2).
func readSeedTrace(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "vdiff-16.mtrc"))
	if err != nil {
		t.Fatalf("seed trace: %v", err)
	}
	return data
}

// cleanDecodeErr reports whether err is an acceptable decode outcome:
// success or a classified corruption error — never anything unwrapped.
func cleanDecodeErr(err error) bool {
	return err == nil || err == io.EOF || errors.Is(err, ErrBadTrace)
}

// errClass buckets a decode outcome for differential checks: a clean
// end, classified corruption, or anything else (a bug in itself).
func errClass(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return "clean"
	case errors.Is(err, ErrBadTrace):
		return "corrupt"
	default:
		return "unclassified: " + err.Error()
	}
}

// frameBoundaries returns the offsets at which a prefix of a v2 stream
// ends at a frame boundary: after the stream header, and after every
// frame whose declared size ends within data. Frames are walked by
// their declared sizes alone.
func frameBoundaries(data []byte) []int {
	if len(data) < streamHeaderLen || data[4] != formatVersionV2 {
		return nil
	}
	cuts := []int{streamHeaderLen}
	for pos := streamHeaderLen; pos+frameHeaderLen <= len(data); {
		next := pos + frameHeaderLen + int(binary.LittleEndian.Uint32(data[pos+4:]))
		if next > len(data) {
			break
		}
		cuts = append(cuts, next)
		pos = next
	}
	return cuts
}

// pullDecode reads data frame by frame with NextFrame from a source
// whose read sizes are drawn from rng, from one byte to 64 KiB. It
// returns the events delivered and the error that ended the stream, nil
// at a clean end.
func pullDecode(data []byte, rng *rand.Rand) ([]Event, error) {
	r, err := NewReader(&chunkSource{data: data, next: func() int { return 1 + rng.Intn(1<<rng.Intn(17)) }, end: io.EOF})
	if err != nil {
		return nil, err
	}
	var evs []Event
	for {
		frame, err := r.NextFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return evs, err
		}
		evs = append(evs, frame...)
	}
	if r.Count() != uint64(len(evs)) {
		return evs, fmt.Errorf("reader counts %d events, delivered %d", r.Count(), len(evs))
	}
	return evs, nil
}

// decodeBothWays decodes data three ways: a Reader read one event at a
// time, a Reader read in 97-event batches that straddle frames, and,
// unless data opens with a v1 header, a Reader read frame by frame
// (NextFrame) from a source whose read sizes derive from the input. The
// two batch Readers must give the same events, the same Count() and the
// same error class. The frame reads must give the same error class, and
// on a clean stream the same events; they fail a malformed frame whole,
// so on a corrupt stream their events are a prefix of the batches'. VerifyBytes, which checks frames
// without decoding events, must not return an unclassified error, must
// not reject a stream the decoder accepts, and must count a clean
// stream's events exactly. It returns the decoded events and the decode
// error.
func decodeBothWays(t *testing.T, data []byte) ([]Event, error) {
	t.Helper()
	type outcome struct {
		evs   []Event
		count uint64
		err   error
	}
	decode := func(batchLen int) outcome {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return outcome{err: err}
		}
		var o outcome
		buf := make([]Event, 0, batchLen)
		for {
			batch, err := r.ReadBatch(buf)
			o.evs = append(o.evs, batch...)
			if err != nil {
				if err != io.EOF {
					o.err = err
				}
				o.count = r.Count()
				return o
			}
		}
	}
	one, batched := decode(1), decode(97)
	if !cleanDecodeErr(one.err) || !cleanDecodeErr(batched.err) {
		t.Fatalf("decode: unclassified error %v / %v", one.err, batched.err)
	}
	if errClass(one.err) != errClass(batched.err) {
		t.Fatalf("one-event reads error %v, 97-event batches error %v", one.err, batched.err)
	}
	if !slices.Equal(one.evs, batched.evs) || one.count != batched.count {
		t.Fatalf("one-event reads decoded %d events (count %d), 97-event batches %d (count %d)",
			len(one.evs), one.count, len(batched.evs), batched.count)
	}
	if batched.count != uint64(len(batched.evs)) {
		t.Fatalf("reader count %d, delivered %d events", batched.count, len(batched.evs))
	}
	if version, _, _, err := parseStreamHeader(data); err != nil || version != formatVersion {
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		pulled, err := pullDecode(data, rng)
		if !cleanDecodeErr(err) || errClass(err) != errClass(batched.err) {
			t.Fatalf("frame reads error %v, batch reads error %v", err, batched.err)
		}
		if len(pulled) > len(batched.evs) || !slices.Equal(pulled, batched.evs[:len(pulled)]) ||
			(err == nil && len(pulled) != len(batched.evs)) {
			t.Fatalf("frame reads delivered %d events (%v), batch reads %d (%v)", len(pulled), err, len(batched.evs), batched.err)
		}
	}
	n, err := VerifyBytes(data)
	if !cleanDecodeErr(err) {
		t.Fatalf("VerifyBytes: unclassified error %v", err)
	}
	if err != nil && batched.err == nil {
		t.Fatalf("VerifyBytes rejects a stream that decodes cleanly: %v", err)
	}
	if batched.err == nil && n != uint64(len(batched.evs)) {
		t.Fatalf("clean decode of %d events, VerifyBytes counts %d", len(batched.evs), n)
	}
	return batched.evs, batched.err
}

// reencodeV2 decodes a v1 stream and re-encodes it in format v2.
func reencodeV2(t testing.TB, v1 []byte, compress bool) []byte {
	t.Helper()
	r, err := NewReader(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("reencode: %v", err)
	}
	var buf bytes.Buffer
	w, err := NewWriterV2(&buf, compress)
	if err != nil {
		t.Fatalf("reencode: %v", err)
	}
	if _, err := r.ReplayBatch(w); err != nil {
		t.Fatalf("reencode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("reencode: %v", err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds arbitrary bytes to the reader: corrupt or
// truncated input must surface ErrBadTrace (or decode cleanly), never
// panic and never return an unclassified error. One-event reads,
// 97-event batches and, for v2, frame reads must agree as
// decodeBothWays requires, and VerifyBytes must agree with the decode.
func FuzzTraceReader(f *testing.F) {
	seed := readSeedTrace(f)
	f.Add(seed)
	f.Add(seed[:5])           // header only
	f.Add(seed[:6])           // event cut mid-encoding
	f.Add(seed[:len(seed)/2]) // torn mid-stream
	f.Add([]byte{})
	f.Add([]byte("MTRC"))                                          // truncated header
	f.Add([]byte{'M', 'T', 'R', 'C', 9})                           // future version
	f.Add([]byte{'X', 'T', 'R', 'C', 1, 0, 0})                     // bad magic
	f.Add(append(append([]byte{}, seed[:5]...), 0xff, 0x80, 0x80)) // bad op, dangling varint
	// v2 seeds: valid framed streams (plain and compressed), a bare v2
	// header, and one with a torn frame header.
	v2 := reencodeV2(f, seed, false)
	f.Add(v2)
	f.Add(reencodeV2(f, seed, true))
	f.Add(v2[:6])
	f.Add(v2[:6+frameHeaderLen/2])
	// A CRC-valid frame whose payload holds a byte past its declared
	// events, then a good frame: a flipped bit cannot forge such a frame.
	var payload []byte
	for _, ev := range []Event{{Op: isa.OpFMul, A: 100, B: 200}, {Op: isa.OpIMul, A: 3, B: 4}} {
		payload = append(payload, byte(ev.Op))
		payload = binary.AppendUvarint(payload, ev.A)
		payload = binary.AppendUvarint(payload, ev.B)
	}
	f.Add(slices.Concat(v2[:6], v2Frame(append(slices.Clone(payload), 0), 2), v2Frame(payload, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := NewReader(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrBadTrace) {
			t.Fatalf("NewReader: unclassified error %v", err)
		}
		evs, _ := decodeBothWays(t, data)
		for i, ev := range evs {
			if ev.Op >= isa.NumOps {
				t.Fatalf("event %d: decoded out-of-range op %d", i, ev.Op)
			}
		}
	})
}

// FuzzTraceRoundTrip drives WriterV2 -> Reader with an arbitrary event
// stream derived from the fuzz input and requires a lossless round trip;
// it then truncates the encoding at every prefix length and requires a
// clean error, never a panic.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(readSeedTrace(f))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the input as {op, a-varint, b-varint} triples, mapping the
		// op byte into range, so the fuzzer explores operand encodings.
		var events []Event
		for r := bytes.NewReader(data); r.Len() > 0 && len(events) < 4096; {
			op, _ := r.ReadByte()
			a, _ := binary.ReadUvarint(r)
			b, _ := binary.ReadUvarint(r)
			events = append(events, Event{Op: isa.Op(op) % isa.NumOps, A: a, B: b})
		}

		encoded := encodeV2(t, events, false)
		r, err := NewReader(bytes.NewReader(encoded))
		if err != nil {
			t.Fatalf("NewReader on own encoding: %v", err)
		}
		var got Recorder
		n, err := r.ReplayBatch(&got)
		if err != nil {
			t.Fatalf("ReplayBatch on own encoding: %v", err)
		}
		if n != uint64(len(events)) {
			t.Fatalf("replayed %d events, wrote %d", n, len(events))
		}
		for i, ev := range got.Events {
			if ev != events[i] {
				t.Fatalf("event %d: round-tripped %+v, wrote %+v", i, ev, events[i])
			}
		}

		// Every truncation must fail cleanly: ErrBadTrace or a short clean
		// decode ending in EOF, never a panic or foreign error.
		for cut := 0; cut < len(encoded); cut += 1 + cut/7 {
			tr, err := NewReader(bytes.NewReader(encoded[:cut]))
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("truncated header at %d: unclassified error %v", cut, err)
				}
				continue
			}
			if _, err := tr.ReplayBatch(&Recorder{}); !cleanDecodeErr(err) {
				t.Fatalf("truncation at %d: unclassified error %v", cut, err)
			}
		}
	})
}

// FuzzTraceV2FrameCorruption builds a valid v2 stream from the fuzz
// input, flips one bit at a fuzzed position, and requires the reader to
// either decode cleanly (flips in a varint payload can yield a different
// but well-formed stream only when the CRC also collides — effectively
// never) or fail with ErrBadTrace. Panics, hangs and unclassified errors
// are the bugs being hunted. Batch and frame reads must agree as
// decodeBothWays requires, and VerifyBytes with the decode.
func FuzzTraceV2FrameCorruption(f *testing.F) {
	seed := readSeedTrace(f)
	f.Add(seed[5:2048], uint32(77), false)
	f.Add(seed[5:2048], uint32(1<<20), true)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint32(3), false)
	f.Add([]byte{}, uint32(0), true)
	// 4096 events of two 9-byte operands: two frames, so every decoder
	// crosses a frame boundary.
	nineByte := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	twoFrames := bytes.Repeat(append(append([]byte{0}, nineByte...), nineByte...), 4096)
	f.Add(twoFrames, uint32(70000), false) // flips a bit in the second frame
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, compress bool) {
		// Derive an event stream from the raw input, as the round-trip
		// fuzzer does, and encode it in v2.
		var events []Event
		for r := bytes.NewReader(data); r.Len() > 0 && len(events) < 4096; {
			op, _ := r.ReadByte()
			a, _ := binary.ReadUvarint(r)
			b, _ := binary.ReadUvarint(r)
			events = append(events, Event{Op: isa.Op(op) % isa.NumOps, A: a, B: b})
		}
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
		encoded := buf.Bytes()
		encoded[int(pos)%len(encoded)] ^= 1 << (pos % 8)

		evs, err := decodeBothWays(t, encoded)
		if !cleanDecodeErr(err) {
			t.Fatalf("decode: unclassified error %v", err)
		}
		for i, ev := range evs {
			if ev.Op >= isa.NumOps {
				t.Fatalf("event %d: decoded out-of-range op %d", i, ev.Op)
			}
		}
	})
}
