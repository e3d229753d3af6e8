package trace

import (
	"bytes"
	"io"
)

// A v2 stream held in memory is a list of frame-aligned segments: the
// first segment begins with the whole stream header, and every frame
// lies whole inside one segment. A contiguous buffer is the one-segment
// case. A SlabWriter's slabs are such a list, so a stream written
// through one is decoded and verified where it was written, without
// ever being joined into one buffer.

// NewSegmentReader validates the header of a stream held in memory as
// frame-aligned segments and prepares to decode it. A v2 stream's
// frames are checked and decoded where they lie; a frame cut by the end
// of its segment reads as a torn frame. Empty segments are skipped. A
// v1 stream is decoded as NewReader decodes the segments' concatenation.
// The segments must not change while the reader is used.
func NewSegmentReader(segs [][]byte) (*Reader, error) {
	var head []byte
	if len(segs) > 0 {
		head = segs[0]
	}
	version, compressed, n, err := parseStreamHeader(head)
	if err != nil {
		return nil, err
	}
	if version == formatVersion {
		rs := make([]io.Reader, len(segs))
		for i, seg := range segs {
			rs[i] = bytes.NewReader(seg)
		}
		return NewReader(io.MultiReader(rs...))
	}
	return &Reader{version: version, compressed: compressed, data: head[n:], segs: segs[1:]}, nil
}

// NewBytesReader is NewSegmentReader over one contiguous buffer.
func NewBytesReader(data []byte) (*Reader, error) {
	return NewSegmentReader([][]byte{data})
}

// VerifyBytes scans a trace stream held in one buffer end to end and
// returns its event count without feeding any sink. For v2 streams only
// frame headers and checksums are examined, where the frames lie — no
// copy, no decompression, no event decoding — so a store entry is
// vetted at memory speed before a replay commits events to a sink. v1
// streams carry no checksums and are fully decoded.
func VerifyBytes(data []byte) (uint64, error) {
	r, err := NewBytesReader(data)
	if err != nil {
		return 0, err
	}
	if r.version == formatVersion {
		return r.Replay(discardSink{})
	}
	var events uint64
	for {
		f, err := r.nextFrame()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events += uint64(f.events)
	}
}

// SegmentsLen returns the total length of segs.
func SegmentsLen(segs [][]byte) int64 {
	var n int64
	for _, seg := range segs {
		n += int64(len(seg))
	}
	return n
}

// Slab sizing. A full uncompressed frame is at most maxFrameLen bytes,
// so a slab of k*maxFrameLen bytes holds k full frames whatever their
// exact sizes, and wastes at most a few bytes per frame.
const (
	maxFrameLen   = frameHeaderLen + maxFrameRaw
	maxSlabShift  = 4
	maxSlabFrames = 1 << maxSlabShift

	// MaxSlabLen is the largest slab a SlabWriter opens for frames that
	// fit one (about 1 MiB): the most unused capacity a stream's last
	// slab can hold.
	MaxSlabLen = maxSlabFrames * maxFrameLen
)

// SlabWriter is the io.Writer a WriterV2 encodes into to hold its
// stream in memory as frame-aligned segments. Each Write lands whole in
// one slab, so given a WriterV2's writes (the stream header, then whole
// frames) no frame straddles two slabs. A slab is allocated once at its
// final capacity and never regrown or copied. Slab i holds room for
// min(2^i, 16) full uncompressed frames, so a long stream settles into
// MaxSlabLen slabs after a handful of smaller ones. A write shorter
// than a full frame that does not fit the open slab — the stream
// header, or a stream's short last frame — gets a slab of exactly its
// size, so it leaves no unused capacity behind. (A compressed stream's
// frames are all short and get a slab each.)
//
// The zero value is an empty writer.
type SlabWriter struct {
	segs [][]byte
	n    int64
}

// Write implements io.Writer; it never fails.
func (w *SlabWriter) Write(p []byte) (int, error) {
	last := len(w.segs) - 1
	if last < 0 || cap(w.segs[last])-len(w.segs[last]) < len(p) {
		size := len(p)
		if size >= frameHeaderLen+frameTarget {
			size = max(size, (1<<min(len(w.segs), maxSlabShift))*maxFrameLen)
		}
		w.segs = append(w.segs, make([]byte, 0, size))
		last++
	}
	w.segs[last] = append(w.segs[last], p...)
	w.n += int64(len(p))
	return len(p), nil
}

// Segments returns the stream written so far as frame-aligned segments,
// aliasing the slabs. The list is valid until the next Write.
func (w *SlabWriter) Segments() [][]byte { return w.segs }

// Len returns the number of bytes written.
func (w *SlabWriter) Len() int64 { return w.n }
