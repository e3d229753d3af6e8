package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"memotable/internal/faults"
	"memotable/internal/isa"
)

// Trace format v2 layers CRC-framed chunks over the v1 event encoding so
// that corruption anywhere in a stream — a torn file, a flipped bit, a
// truncated frame — is detected before any damaged event reaches a sink:
//
//	magic   "MTRC"              (4 bytes)
//	version uint8 = 2
//	flags   uint8               (bit 0: frame payloads are DEFLATE-compressed;
//	                             all other bits must be zero)
//	frames  repeated {
//	    rawLen    uint32 LE     payload size before compression
//	    storedLen uint32 LE     payload size on the wire
//	    events    uint32 LE     events encoded in this frame
//	    crc       uint32 LE     CRC32-Castagnoli over the 12 header bytes
//	                            above followed by the stored payload
//	    payload   storedLen bytes of the v1 per-event encoding
//	                            {op uint8, a uvarint, b uvarint}
//	}
//
// A frame holds ~64 KiB of raw event bytes (frameTarget), so the reader
// verifies each checksum over a bounded buffer before decoding a single
// event from it, and a clean io.EOF is only reported at a frame
// boundary. The per-event encoding is exactly v1's; NewReader dispatches
// on the version byte and reads either stream.

const (
	formatVersionV2 = 2

	// VersionV2 exports the v2 format generation number. The persistent
	// trace store folds it into its content keys and file names, so
	// entries written by another format generation are invisible to this
	// build rather than misread.
	VersionV2 = formatVersionV2

	// flagFlate marks frame payloads as DEFLATE-compressed. Remaining
	// flag bits are reserved and must be zero.
	flagFlate = 0x01

	// frameTarget is the raw payload size at which the writer seals a
	// frame. An event can straddle the threshold by at most its own
	// encoded length, bounding raw frames at frameTarget+maxEventLen.
	frameTarget = 64 << 10

	// maxEventLen is the longest single-event encoding.
	maxEventLen = 1 + 2*binary.MaxVarintLen64

	// maxFrameRaw / maxFrameStored bound the sizes a reader will
	// allocate for, so a corrupt frame header cannot demand an
	// arbitrary buffer. Stored payloads get slack for incompressible
	// DEFLATE input (which grows slightly).
	maxFrameRaw    = frameTarget + maxEventLen
	maxFrameStored = maxFrameRaw + 1024

	frameHeaderLen = 16

	// streamHeaderLen is the v2 stream preamble: magic, version, flags.
	streamHeaderLen = 6
)

// castagnoli is the CRC32C table used by every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWriterClosed reports an Emit on a WriterV2 whose stream was already
// sealed by Close. The event is dropped and the error latches, so the
// loss is loud: the next Flush, Close or Err call surfaces it.
var ErrWriterClosed = errors.New("trace: emit on closed writer")

// WriterV2 encodes events in trace format v2. Like Writer it implements
// Sink, defers write errors to Flush, and counts emitted events.
//
// The writer is re-armable: Flush is a mid-stream checkpoint that seals
// the open frame and leaves the writer usable, so a live producer can
// push every buffered event onto the wire and keep emitting — each Emit
// after a Flush simply opens the next frame. The stream ends with Close,
// which seals the final frame and latches the writer; an Emit after
// Close is an error (surfaced by the next Flush/Close/Err call) rather
// than a silently lost frame.
type WriterV2 struct {
	w io.Writer
	// frame is the open frame as it goes on the wire: a reserved header,
	// filled in when the frame is sealed, then the raw event bytes.
	frame       []byte
	cbuf        bytes.Buffer // compressed frame: reserved header, then stored payload
	comp        *flate.Writer
	frameEvents uint32
	count       uint64
	err         error
	closed      bool
}

// NewWriterV2 starts a v2 trace stream on w, writing the header
// immediately. When compress is set, frame payloads are
// DEFLATE-compressed (flate.BestSpeed) and the header's compression flag
// records it for the reader.
func NewWriterV2(w io.Writer, compress bool) (*WriterV2, error) {
	var flags byte
	var comp *flate.Writer
	if compress {
		flags |= flagFlate
		var err error
		if comp, err = flate.NewWriter(io.Discard, flate.BestSpeed); err != nil {
			return nil, fmt.Errorf("trace: deflate init: %w", err)
		}
	}
	hdr := []byte{magic[0], magic[1], magic[2], magic[3], formatVersionV2, flags}
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	// Emit seals a frame once it reaches frameTarget, so one event past
	// that is all the open frame ever holds: it never regrows.
	frame := make([]byte, frameHeaderLen, frameHeaderLen+maxFrameRaw)
	return &WriterV2{w: w, frame: frame, comp: comp}, nil
}

// Emit implements Sink. Encoding and write errors are deferred to Flush.
// Emitting on a closed writer drops the event and latches ErrWriterClosed.
func (w *WriterV2) Emit(ev Event) {
	if w.closed {
		if w.err == nil {
			w.err = ErrWriterClosed
		}
		return
	}
	if w.err != nil {
		return
	}
	w.count++
	f := w.frame
	n := len(f)
	f = f[:n+maxEventLen] // room for one event, and for putUvarint's word stores
	f[n] = byte(ev.Op)
	n++
	n += putUvarint(f[n:], ev.A)
	n += putUvarint(f[n:], ev.B)
	w.frame = f[:n]
	w.frameEvents++
	if len(w.frame)-frameHeaderLen >= frameTarget {
		w.err = w.flushFrame()
	}
}

// Count returns the number of events emitted.
func (w *WriterV2) Count() uint64 { return w.count }

// Flush seals the open frame, pushing every emitted event onto the wire,
// and surfaces any deferred error. It is a checkpoint, not an end: the
// writer stays armed, and a later Emit opens the next frame. The bytes
// written so far always form a readable prefix of the stream; the stream
// is complete once Close returns nil.
func (w *WriterV2) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.frame) > frameHeaderLen {
		w.err = w.flushFrame()
	}
	return w.err
}

// Close seals the stream: the open frame is flushed and the writer
// latches, so any further Emit is an error instead of a silently dropped
// frame. Close is idempotent and returns the writer's first error.
func (w *WriterV2) Close() error {
	err := w.Flush()
	w.closed = true
	return err
}

// Err returns the writer's latched error: a deferred write failure, or
// ErrWriterClosed after an Emit on a closed writer.
func (w *WriterV2) Err() error { return w.err }

// flushFrame seals the open frame in place — its header is written into
// the bytes reserved in front of the payload — and writes header and
// payload to the underlying writer as a single Write call, so a
// downstream writer (a live ingest socket, for one) observes whole
// frames. A compressed payload is deflated behind a header reserved the
// same way.
func (w *WriterV2) flushFrame() error {
	out := w.frame
	if w.comp != nil {
		w.cbuf.Reset()
		_, _ = w.cbuf.Write(w.frame[:frameHeaderLen]) // reserves the header; bytes.Buffer writes cannot fail
		w.comp.Reset(&w.cbuf)
		if _, err := w.comp.Write(w.frame[frameHeaderLen:]); err != nil {
			return err
		}
		if err := w.comp.Close(); err != nil {
			return err
		}
		out = w.cbuf.Bytes()
	}
	hdr := out[:frameHeaderLen]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(w.frame)-frameHeaderLen))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(out)-frameHeaderLen))
	binary.LittleEndian.PutUint32(hdr[8:], w.frameEvents)
	crc := crc32.Update(0, castagnoli, hdr[:12])
	crc = crc32.Update(crc, castagnoli, out[frameHeaderLen:])
	binary.LittleEndian.PutUint32(hdr[12:], crc)
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	w.frame = w.frame[:frameHeaderLen]
	w.frameEvents = 0
	return nil
}

// Reading v2 in place. Every v2 read checks a frame with the one
// function parseFrame, where the frame already lies. The Reader's one
// frame walk (readFrame) runs it over the bytes pulled from the source,
// reading more whenever the buffer ends inside a frame, and inflates a
// compressed payload into reused scratch; VerifyBytes steps parseFrame
// over the caller's buffer. Events are decoded by the one event loop,
// decodeEvents.
//
// Because every v2 frame is self-delimiting and carries its own CRC32C,
// the walk never guesses: a frame is either not yet complete (read
// more), complete and valid (deliver), or complete and damaged (fail).
// A source that ends inside a frame leaves a torn stream; one that ends
// at a frame boundary, a clean one.

// shortFrame reports that a buffer ends inside the frame at its head;
// its value names the part cut off. The Reader reads more of its source;
// at the source's end the frame is torn.
type shortFrame string

const (
	shortHeader  shortFrame = "frame header"
	shortPayload shortFrame = "frame payload"
)

func (s shortFrame) Error() string { return "trace: buffer ends inside " + string(s) }

// frame is one checked v2 frame as it lies in its buffer.
type frame struct {
	stored []byte // the payload as stored; aliases the parsed buffer
	rawLen uint32 // payload size before compression
	events uint32 // declared event count
	size   int    // header plus stored payload: the bytes the frame spans
}

// parseFrame checks the v2 frame at the head of p without copying it:
// the header's bounds (checkFrameHeader), then the CRC32C over header
// and stored payload, then the trace.frame.crc injection point. When p
// ends inside the frame it returns shortHeader, or shortPayload with
// the frame's size set, so a caller can fetch exactly the missing
// bytes; the header is vetted before any payload is waited for.
func parseFrame(p []byte, compressed bool) (frame, error) {
	if len(p) < frameHeaderLen {
		return frame{}, shortHeader
	}
	rawLen := binary.LittleEndian.Uint32(p[0:])
	storedLen := binary.LittleEndian.Uint32(p[4:])
	events := binary.LittleEndian.Uint32(p[8:])
	crc := binary.LittleEndian.Uint32(p[12:])
	if err := checkFrameHeader(rawLen, storedLen, events, compressed); err != nil {
		return frame{}, err
	}
	f := frame{rawLen: rawLen, events: events, size: frameHeaderLen + int(storedLen)}
	if len(p) < f.size {
		return f, shortPayload
	}
	f.stored = p[frameHeaderLen:f.size]
	got := crc32.Update(0, castagnoli, p[:12])
	got = crc32.Update(got, castagnoli, f.stored)
	if got != crc {
		return frame{}, fmt.Errorf("%w: frame CRC %08x, computed %08x", ErrBadTrace, crc, got)
	}
	if ferr := faults.Inject(faults.FrameCRC); ferr != nil {
		return frame{}, fmt.Errorf("%w: frame CRC rejected: %v", ErrBadTrace, ferr)
	}
	return f, nil
}

// checkFrameHeader vets the declared sizes of a frame before any buffer
// is allocated for it. Every event encodes to at least 3 bytes, tying
// the declared event count to the declared payload size.
func checkFrameHeader(rawLen, storedLen, events uint32, compressed bool) error {
	switch {
	case rawLen == 0 || events == 0:
		return fmt.Errorf("%w: empty frame", ErrBadTrace)
	case rawLen > maxFrameRaw:
		return fmt.Errorf("%w: frame raw size %d exceeds limit %d", ErrBadTrace, rawLen, maxFrameRaw)
	case storedLen > maxFrameStored:
		return fmt.Errorf("%w: frame stored size %d exceeds limit %d", ErrBadTrace, storedLen, maxFrameStored)
	case uint64(rawLen) < 3*uint64(events):
		return fmt.Errorf("%w: frame declares %d events in %d bytes", ErrBadTrace, events, rawLen)
	case !compressed && storedLen != rawLen:
		return fmt.Errorf("%w: uncompressed frame sizes disagree (%d raw, %d stored)", ErrBadTrace, rawLen, storedLen)
	}
	return nil
}

// inflater expands compressed frame payloads into a reused buffer with
// a reused decompressor, so a compressed stream allocates nothing per
// frame once its first frame is read.
type inflater struct {
	src  bytes.Reader
	fr   io.ReadCloser // a flate reader; also a flate.Resetter
	raw  []byte
	tail [1]byte
}

// payload returns f's raw event bytes: the stored payload itself for an
// uncompressed stream, else the payload inflated into z's scratch, which
// the next call overwrites. A payload that inflates to anything but
// exactly its declared size is corrupt.
func (z *inflater) payload(f frame, compressed bool) ([]byte, error) {
	if !compressed {
		return f.stored, nil
	}
	z.src.Reset(f.stored)
	if z.fr == nil {
		z.fr = flate.NewReader(&z.src)
	} else if err := z.fr.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("%w: frame decompression: %v", ErrBadTrace, err)
	}
	if z.raw == nil {
		z.raw = make([]byte, maxFrameRaw)
	}
	raw := z.raw[:f.rawLen] // checkFrameHeader bounds rawLen
	if _, err := io.ReadFull(z.fr, raw); err != nil {
		return nil, fmt.Errorf("%w: frame decompression: %v", ErrBadTrace, err)
	}
	if n, _ := z.fr.Read(z.tail[:]); n != 0 {
		return nil, fmt.Errorf("%w: frame inflates past declared size %d", ErrBadTrace, f.rawLen)
	}
	return raw, nil
}

// readChunk sizes the buffer the walk reads its source into: a few
// frames, so the partial frame moved to the front before a read is small
// next to what the read brings in.
const readChunk = 256 << 10

// readFrame is the one v2 frame walk. It loads the next frame's raw
// event bytes into r.frame, reading the source whenever the buffer ends
// inside the frame. The payload aliases the buffer or the inflate
// scratch, so it is valid until the next readFrame. It returns io.EOF
// only at a clean frame boundary at the source's end and a failed read
// as the source's error, after every frame wholly read before it; every
// other defect, including a frame the source's end cuts off and
// undecoded bytes left in the current frame, is ErrBadTrace.
func (r *Reader) readFrame() error {
	if r.fpos != len(r.frame) {
		return fmt.Errorf("%w: %d trailing bytes in frame", ErrBadTrace, len(r.frame)-r.fpos)
	}
	for {
		// A complete header is vetted even while its payload is unread.
		f, err := parseFrame(r.buf[r.pos:], r.compressed)
		if part, ok := err.(shortFrame); ok {
			switch {
			case r.end == nil:
				r.fill()
				continue
			case r.end != io.EOF:
				return r.end
			case r.pos == len(r.buf):
				return io.EOF
			default:
				return fmt.Errorf("%w: torn %s", ErrBadTrace, string(part))
			}
		}
		if err != nil {
			return err
		}
		raw, err := r.z.payload(f, r.compressed)
		if err != nil {
			return err
		}
		r.pos += f.size
		r.frame, r.fpos, r.fEvents = raw, 0, f.events
		return nil
	}
}

// fill makes one read of the source straight into the buffer's free
// space, which always has room for a whole frame, after moving the
// unwalked tail to the front. The source's end, io.EOF or a failed read
// (as the source's error), is recorded in r.end for the walk to act on
// once it has used the bytes that came with it.
func (r *Reader) fill() {
	if r.pos > 0 {
		r.buf = append(r.buf[:0], r.buf[r.pos:]...)
		r.pos = 0
	}
	if cap(r.buf)-len(r.buf) < frameHeaderLen+maxFrameStored {
		r.buf = slices.Grow(r.buf, readChunk)
	}
	n, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+n]
	if err == io.EOF {
		r.end = io.EOF
	} else if err != nil {
		r.end = fmt.Errorf("trace: reading stream: %w", err)
	}
}

// NextFrame decodes the rest of the current v2 frame — the next whole
// frame, unless ReadBatch stopped inside one — and returns its events,
// reading the source only as far as that frame ends, so a live stream's
// frames can be handled as they arrive. The returned slice is reused by
// the next call. A frame with a malformed event delivers none of its
// events. It returns io.EOF at a clean frame boundary at the source's
// end, the source's error on a failed read, and ErrBadTrace on a torn or
// corrupt stream, and on a v1 stream, whose unframed events cannot be
// told from a torn tail.
func (r *Reader) NextFrame() ([]Event, error) {
	if r.err != nil {
		return nil, r.err
	}
	evs, err := r.nextFrame()
	if err != nil && err != io.EOF {
		r.err = err
	}
	return evs, err
}

func (r *Reader) nextFrame() ([]Event, error) {
	if r.version != formatVersionV2 {
		return nil, fmt.Errorf("%w: v1 streams are not self-delimiting; stream ingest requires v2", ErrBadTrace)
	}
	if r.fEvents == 0 {
		if err := r.readFrame(); err != nil {
			return nil, err
		}
	}
	if cap(r.evbuf) < int(r.fEvents) {
		r.evbuf = make([]Event, 0, r.fEvents)
	}
	evs, pos, err := decodeEvents(r.evbuf[:0], r.frame, r.fpos, r.fEvents)
	if err != nil {
		return nil, err
	}
	if pos != len(r.frame) {
		return nil, fmt.Errorf("%w: %d trailing bytes in frame", ErrBadTrace, len(r.frame)-pos)
	}
	r.evbuf, r.fpos, r.fEvents = evs, pos, 0
	r.count += uint64(len(evs))
	return evs, nil
}

// readBatchV2 fills dst from the current frame, pulling in the next
// frame when the current one is exhausted. Decoding a whole frame's
// events in one loop, without a call per event, is what makes block
// replay cheaper than event replay even before batch fan-out.
func (r *Reader) readBatchV2(dst []Event) ([]Event, error) {
	for len(dst) < cap(dst) {
		for r.fEvents == 0 {
			if err := r.readFrame(); err != nil {
				if err == io.EOF && len(dst) > 0 {
					return dst, nil
				}
				if err == io.EOF {
					return nil, io.EOF
				}
				return dst, err
			}
		}
		n := len(dst)
		var err error
		dst, r.fpos, err = decodeEvents(dst, r.frame, r.fpos, r.fEvents)
		r.fEvents -= uint32(len(dst) - n)
		r.count += uint64(len(dst) - n)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// decodeEvents is the v2 event loop. It decodes up to n events of a
// checked frame payload p, starting at pos, appending them to dst while
// dst has room, and returns dst with the position after the last event
// decoded. On a malformed event it stops there and returns ErrBadTrace.
func decodeEvents(dst []Event, p []byte, pos int, n uint32) ([]Event, int, error) {
	for ; n > 0 && len(dst) < cap(dst); n-- {
		if pos >= len(p) {
			return dst, pos, fmt.Errorf("%w: frame under-delivers its declared events", ErrBadTrace)
		}
		opByte := p[pos]
		if opByte >= byte(isa.NumOps) {
			return dst, pos, fmt.Errorf("%w: op byte %d", ErrBadTrace, opByte)
		}
		a, na := uvarint(p[pos+1:])
		if na <= 0 {
			return dst, pos, fmt.Errorf("%w: operand A varint", ErrBadTrace)
		}
		b, nb := uvarint(p[pos+1+na:])
		if nb <= 0 {
			return dst, pos, fmt.Errorf("%w: operand B varint", ErrBadTrace)
		}
		pos += 1 + na + nb
		dst = append(dst, Event{Op: isa.Op(opByte), A: a, B: b})
	}
	return dst, pos, nil
}

// VerifyBytes scans a trace stream held in one buffer end to end and
// returns its event count without feeding any sink. For v2 streams only
// frame headers and checksums are examined, where the frames lie — no
// copy, no decompression, no event decoding — so a stored trace is
// vetted at memory speed before a replay commits events to a sink. v1
// streams carry no checksums and are fully decoded.
func VerifyBytes(data []byte) (uint64, error) {
	version, compressed, n, err := parseStreamHeader(data)
	if err != nil {
		return 0, err
	}
	if version == formatVersion {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		return r.ReplayBatch(&Counter{})
	}
	var events uint64
	for p := data[n:]; len(p) > 0; {
		f, err := parseFrame(p, compressed)
		if part, ok := err.(shortFrame); ok {
			return events, fmt.Errorf("%w: torn %s", ErrBadTrace, string(part))
		}
		if err != nil {
			return events, err
		}
		events += uint64(f.events)
		p = p[f.size:]
	}
	return events, nil
}
