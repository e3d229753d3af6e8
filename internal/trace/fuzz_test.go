package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// frameBoundaries returns the offsets at which a v2 stream can be cut
// into frame-aligned segments: after the stream header, and after every
// frame whose declared size ends within data. Frames are walked by
// their declared sizes alone, so a corrupt frame is cut where a reader
// of the whole buffer would also take it to end.
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

// splitAt cuts data into segments at the given ascending offsets.
func splitAt(data []byte, cuts []int) [][]byte {
	segs := make([][]byte, 0, len(cuts)+1)
	prev := 0
	for _, c := range cuts {
		segs = append(segs, data[prev:c])
		prev = c
	}
	return append(segs, data[prev:])
}

// decodeBothWays decodes data through a Reader over an io.Reader and a
// Reader over the bytes, in batches that straddle frames, and requires
// the same events, the same Count() and the same error class from both.
// A v2 stream is also decoded as frame-aligned segments, cut at every
// frame boundary and at a random subset of them, and must match the
// reader over the bytes. VerifyBytes, which checks frames without
// decoding events, must not return an unclassified error, must not
// reject a stream the decoder accepts, and must count a clean stream's
// events exactly. It returns the decoded events and the decode error.
func decodeBothWays(t *testing.T, data []byte) ([]Event, error) {
	t.Helper()
	type outcome struct {
		evs   []Event
		count uint64
		err   error
	}
	decode := func(r *Reader, err error) outcome {
		if err != nil {
			return outcome{err: err}
		}
		var o outcome
		buf := make([]Event, 0, 97)
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
	viaIO := decode(NewReader(bytes.NewReader(data)))
	inMem := decode(NewBytesReader(data))
	if !cleanDecodeErr(viaIO.err) || !cleanDecodeErr(inMem.err) {
		t.Fatalf("decode: unclassified error %v / %v", viaIO.err, inMem.err)
	}
	if errClass(viaIO.err) != errClass(inMem.err) {
		t.Fatalf("io.Reader path error %v, in-memory path error %v", viaIO.err, inMem.err)
	}
	if !slices.Equal(viaIO.evs, inMem.evs) || viaIO.count != inMem.count {
		t.Fatalf("io.Reader path decoded %d events (count %d), in-memory path %d (count %d)",
			len(viaIO.evs), viaIO.count, len(inMem.evs), inMem.count)
	}
	if viaIO.count != uint64(len(viaIO.evs)) {
		t.Fatalf("reader count %d, delivered %d events", viaIO.count, len(viaIO.evs))
	}
	n, err := VerifyBytes(data)
	if !cleanDecodeErr(err) {
		t.Fatalf("VerifyBytes: unclassified error %v", err)
	}
	if err != nil && inMem.err == nil {
		t.Fatalf("VerifyBytes rejects a stream that decodes cleanly: %v", err)
	}
	if inMem.err == nil && n != uint64(len(inMem.evs)) {
		t.Fatalf("clean decode of %d events, VerifyBytes counts %d", len(inMem.evs), n)
	}
	if cuts := frameBoundaries(data); cuts != nil {
		rng := rand.New(rand.NewSource(int64(crc32.ChecksumIEEE(data))))
		some := slices.DeleteFunc(slices.Clone(cuts), func(int) bool { return rng.Intn(2) == 0 })
		for _, segs := range [][][]byte{splitAt(data, cuts), splitAt(data, some)} {
			seg := decode(NewSegmentReader(segs))
			if errClass(seg.err) != errClass(inMem.err) || !slices.Equal(seg.evs, inMem.evs) || seg.count != inMem.count {
				t.Fatalf("%d segments decoded %d events (count %d, %v), one buffer %d (count %d, %v)",
					len(segs), len(seg.evs), seg.count, seg.err, len(inMem.evs), inMem.count, inMem.err)
			}
		}
	}
	return viaIO.evs, viaIO.err
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
	if _, err := r.Replay(w); err != nil {
		t.Fatalf("reencode: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("reencode: %v", err)
	}
	return buf.Bytes()
}

// FuzzTraceReader feeds arbitrary bytes to the reader: corrupt or
// truncated input must surface ErrBadTrace (or decode cleanly), never
// panic and never return an unclassified error. Next, ReadBatch over an
// io.Reader, ReadBatch over bytes and, for v2, ReadBatch over
// frame-aligned segments must deliver the same events and the same
// error class, and VerifyBytes must agree with the decode.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("NewReader: unclassified error %v", err)
			}
			return
		}
		var evs []Event
		var nextErr error
		for {
			ev, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !cleanDecodeErr(err) {
					t.Fatalf("Next: unclassified error %v", err)
				}
				nextErr = err
				break
			}
			if ev.Op >= isa.NumOps {
				t.Fatalf("decoded out-of-range op %d", ev.Op)
			}
			evs = append(evs, ev)
		}
		if uint64(len(evs)) != r.Count() {
			t.Fatalf("reader count %d, decoded %d", r.Count(), len(evs))
		}
		batched, err := decodeBothWays(t, data)
		if errClass(err) != errClass(nextErr) || !slices.Equal(batched, evs) {
			t.Fatalf("Next decoded %d events (%v), ReadBatch %d (%v)", len(evs), nextErr, len(batched), err)
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
		n, err := r.Replay(&got)
		if err != nil {
			t.Fatalf("Replay on own encoding: %v", err)
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
			if _, err := tr.Replay(&Recorder{}); !cleanDecodeErr(err) {
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
// are the bugs being hunted. The io.Reader, in-memory and segmented
// decoders must agree event for event, and VerifyBytes with the decode.
func FuzzTraceV2FrameCorruption(f *testing.F) {
	seed := readSeedTrace(f)
	f.Add(seed[5:2048], uint32(77), false)
	f.Add(seed[5:2048], uint32(1<<20), true)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint32(3), false)
	f.Add([]byte{}, uint32(0), true)
	// 4096 events of two 9-byte operands: two frames, so the segmented
	// decode sees more than one frame.
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
