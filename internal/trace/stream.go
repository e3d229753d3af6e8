package trace

import (
	"errors"
	"fmt"
	"io"
	"slices"
)

// Incremental decoding of a v2 trace stream. StreamDecoder holds the one
// v2 frame walk, which is run two ways. Pushed (live ingest), bytes are
// fed as they arrive (Feed) and complete frames are taken out as they
// become decodable (NextFrame). Pulled, the Reader owns a decoder and,
// whenever the walk runs out of bytes, reads the next ones from its
// source straight into the decoder's buffer. An incomplete tail reads as
// ErrStreamOpen ("more bytes pending") until CloseInput declares the
// input finished; after that the same tail is a torn stream, ErrBadTrace.
//
// Because every v2 frame is self-delimiting and carries its own CRC32C,
// the decoder never guesses: a frame is either not yet complete (wait),
// complete and valid (deliver), or complete and damaged (fail). Only v2
// streams are accepted — a v1 stream has no framing, so an incremental
// consumer could not distinguish its torn tail from a clean end.

// ErrStreamOpen reports that the buffered bytes end mid-frame while the
// input is still open: not corruption, just a frame whose remaining
// bytes have not arrived yet. Feed more bytes (or CloseInput) and call
// NextFrame again.
var ErrStreamOpen = errors.New("trace: stream still open, frame incomplete")

// readChunk sizes the buffer a pull source reads into: a few frames, so
// the partial frame moved to the front before a read is small next to
// what the read brings in.
const readChunk = 256 << 10

// StreamDecoder decodes a v2 trace stream incrementally from pushed
// byte chunks. The zero value is an empty decoder, the one
// NewStreamDecoder returns. It is not safe for concurrent use.
type StreamDecoder struct {
	buf        []byte // fed, not-yet-consumed bytes (pos-prefix consumed)
	pos        int
	headerDone bool
	compressed bool
	sealed     bool

	frames  uint64
	events  uint64
	bytesIn int64

	evbuf []Event  // decoded events of the last delivered frame, reused
	z     inflater // decompression scratch, reused
}

// NewStreamDecoder prepares an empty decoder; the stream header is
// parsed from the first fed bytes.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// Feed appends arriving bytes. The decoder copies p, so the caller may
// reuse its buffer immediately.
func (d *StreamDecoder) Feed(p []byte) {
	d.compact()
	d.buf = append(d.buf, p...)
	d.bytesIn += int64(len(p))
}

// compact drops the consumed prefix before the buffer grows, so a
// long-lived session holds at most one frame of backlog plus the unread
// tail.
func (d *StreamDecoder) compact() {
	if d.pos > 0 {
		d.buf = append(d.buf[:0], d.buf[d.pos:]...)
		d.pos = 0
	}
}

// readFrom makes one read of src straight into the buffer's free space,
// which always has room for a whole frame, and closes the input at src's
// EOF. A failed read is returned as the source's error, not as a
// corrupt stream.
func (d *StreamDecoder) readFrom(src io.Reader) error {
	d.compact()
	if cap(d.buf)-len(d.buf) < frameHeaderLen+maxFrameStored {
		d.buf = slices.Grow(d.buf, readChunk)
	}
	n, err := src.Read(d.buf[len(d.buf):cap(d.buf)])
	d.buf = d.buf[:len(d.buf)+n]
	d.bytesIn += int64(n)
	if err == io.EOF {
		d.CloseInput()
		return nil
	}
	if err != nil {
		return fmt.Errorf("trace: reading stream: %w", err)
	}
	return nil
}

// CloseInput declares that no more bytes will arrive. From here on an
// incomplete tail decodes as a torn stream (ErrBadTrace) and a clean
// frame boundary as io.EOF.
func (d *StreamDecoder) CloseInput() { d.sealed = true }

// Frames returns the number of complete frames delivered so far.
func (d *StreamDecoder) Frames() uint64 { return d.frames }

// Events returns the number of events delivered so far.
func (d *StreamDecoder) Events() uint64 { return d.events }

// BytesIn returns the total bytes fed so far.
func (d *StreamDecoder) BytesIn() int64 { return d.bytesIn }

// Buffered returns the fed bytes not yet consumed by a delivered frame —
// the torn tail, while the stream is open.
func (d *StreamDecoder) Buffered() int { return len(d.buf) - d.pos }

// incomplete classifies a tail that stops mid-structure: still-open
// streams wait for more bytes, sealed streams are torn.
func (d *StreamDecoder) incomplete(what string) error {
	if d.sealed {
		return fmt.Errorf("%w: torn %s", ErrBadTrace, what)
	}
	return fmt.Errorf("%w: need more bytes for %s", ErrStreamOpen, what)
}

// NextFrame decodes the next complete frame and returns its events, in
// stream order. The returned slice is reused by the next call, so the
// caller must consume (or copy) it first. A frame with a malformed event
// delivers none of its events. Errors:
//
//   - ErrStreamOpen: the buffered bytes end mid-header or mid-frame and
//     the input is still open — feed more and retry;
//   - io.EOF: CloseInput was called and the stream ends at a clean frame
//     boundary (the whole stream was delivered);
//   - ErrBadTrace: real corruption — bad magic or version, a complete
//     frame failing its checksum or event decode, or a tail left torn by
//     CloseInput.
func (d *StreamDecoder) NextFrame() ([]Event, error) {
	raw, events, err := d.walk()
	if err != nil {
		return nil, err
	}
	if cap(d.evbuf) < int(events) {
		d.evbuf = make([]Event, 0, events)
	}
	evs, pos, err := decodeEvents(d.evbuf[:0], raw, 0, events)
	if err != nil {
		return nil, err
	}
	if pos != len(raw) {
		return nil, fmt.Errorf("%w: %d trailing bytes in frame", ErrBadTrace, len(raw)-pos)
	}
	d.evbuf = evs
	d.frames++
	d.events += uint64(len(evs))
	return evs, nil
}

// walk is the one v2 frame walk. It checks the next buffered frame with
// parseFrame, steps past it, and returns its raw event bytes (inflated
// for a compressed stream) and its declared event count; decoding the
// payload is the caller's. The payload aliases the decoder's buffer or
// its inflate scratch, so it is valid until the next walk, Feed or
// readFrom. Errors are NextFrame's.
func (d *StreamDecoder) walk() ([]byte, uint32, error) {
	if !d.headerDone {
		if err := d.parseHeader(); err != nil {
			return nil, 0, err
		}
	}
	avail := d.buf[d.pos:]
	if len(avail) == 0 && d.sealed {
		return nil, 0, io.EOF
	}
	// A complete header is vetted even while its payload is in flight.
	f, err := parseFrame(avail, d.compressed)
	if part, ok := err.(shortFrame); ok {
		return nil, 0, d.incomplete(string(part))
	}
	if err != nil {
		return nil, 0, err
	}
	raw, err := d.z.payload(f, d.compressed)
	if err != nil {
		return nil, 0, err
	}
	d.pos += f.size
	return raw, f.events, nil
}

// parseHeader consumes the 6-byte stream preamble once enough bytes are
// buffered, rejecting anything but an uncorrupted v2 header.
func (d *StreamDecoder) parseHeader() error {
	avail := d.buf[d.pos:]
	if len(avail) < streamHeaderLen {
		return d.incomplete("stream header")
	}
	version, compressed, _, err := parseStreamHeader(avail)
	if err != nil {
		return err
	}
	if version != formatVersionV2 {
		return fmt.Errorf("%w: v1 streams are not self-delimiting; stream ingest requires v2", ErrBadTrace)
	}
	d.compressed = compressed
	d.pos += streamHeaderLen
	d.headerDone = true
	return nil
}
