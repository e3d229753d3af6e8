package trace

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"slices"
	"testing"
)

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

// TestSlabWriterLandsFramesInSlabs: a stream written through a
// SlabWriter is the encoder's exact byte stream, cut only at frame
// boundaries into slabs that grow from two frames to MaxSlabLen, with
// the header and the short last frame in exact-size slabs; the segment
// reader decodes it as the contiguous reader does.
func TestSlabWriterLandsFramesInSlabs(t *testing.T) {
	events := randomEvents(400000, 11) // about 5 MB: header, 2, 4, 8, then 16-frame slabs
	var slabs SlabWriter
	w, err := NewWriterV2(&slabs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := slabs.Segments()
	flat := encodeV2(t, events, false)
	if !bytes.Equal(bytes.Join(segs, nil), flat) || slabs.Len() != int64(len(flat)) {
		t.Fatalf("slabs hold %d bytes that differ from the %d-byte encoding", slabs.Len(), len(flat))
	}

	cuts := frameBoundaries(flat)
	off := 0
	for i, seg := range segs {
		off += len(seg)
		if !slices.Contains(cuts, off) {
			t.Fatalf("slab %d ends at %d, inside a frame", i, off)
		}
		var want int
		switch {
		case i == 0:
			want = streamHeaderLen
		case i == len(segs)-1 && cap(seg) == len(seg):
			want = len(seg) // the short last frame's own slab
		default:
			want = min(1<<i, maxSlabFrames) * maxFrameLen
		}
		if cap(seg) != want {
			t.Fatalf("slab %d has capacity %d, want %d", i, cap(seg), want)
		}
	}
	unused := 0
	for _, seg := range segs {
		unused += cap(seg) - len(seg)
	}
	if unused > MaxSlabLen {
		t.Fatalf("slabs leave %d bytes unused, more than one slab", unused)
	}

	r, err := NewSegmentReader(segs)
	if err != nil {
		t.Fatal(err)
	}
	var got Recorder
	if n, err := r.Replay(&got); err != nil || n != uint64(len(events)) || !slices.Equal(got.Events, events) {
		t.Fatalf("segment reader replayed %d of %d events: %v", n, len(events), err)
	}
}

// TestSegmentReaderRejectsCutFrames: segments must be frame-aligned. A
// frame cut by a segment's end is a torn frame, and a stream header cut
// by the first segment's end is a missing header — both ErrBadTrace —
// while empty segments anywhere are skipped.
func TestSegmentReaderRejectsCutFrames(t *testing.T) {
	events := randomEvents(20000, 5)
	flat := encodeV2(t, events, false)
	cuts := frameBoundaries(flat)
	if len(cuts) < 3 {
		t.Fatalf("stream has %d frames, want at least two", len(cuts)-1)
	}

	padded := [][]byte{flat[:cuts[0]], nil, flat[cuts[0]:cuts[1]], {}, flat[cuts[1]:], nil}
	r, err := NewSegmentReader(padded)
	if err != nil {
		t.Fatal(err)
	}
	var got Recorder
	if n, err := r.Replay(&got); err != nil || n != uint64(len(events)) || !slices.Equal(got.Events, events) {
		t.Fatalf("empty segments: replayed %d of %d events: %v", n, len(events), err)
	}

	mid := cuts[1] + 100
	torn := [][]byte{flat[:mid], flat[mid:]}
	r, err = NewSegmentReader(torn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Replay(&Recorder{}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("frame cut between segments: Replay = %v, want ErrBadTrace", err)
	}
	if _, err := NewSegmentReader([][]byte{flat[:3], flat[3:]}); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("header cut between segments: NewSegmentReader = %v, want ErrBadTrace", err)
	}
	if _, err := NewSegmentReader(nil); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("no segments: NewSegmentReader = %v, want ErrBadTrace", err)
	}
}
