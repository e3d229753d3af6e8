package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"memotable/internal/isa"
)

// Binary trace file format, version 1:
//
//	magic   "MTRC"                (4 bytes)
//	version uint8                 (1)
//	events  repeated {op uint8, a uvarint, b uvarint}
//
// The format is append-only and stream-decodable. Operands are
// varint-encoded, which pays for small integers and loads but not for
// FP bit patterns: over the tiny experiment registry 30% of operand
// varints take one byte and 61% take 9 or 10 (uvarint, varint.go, is
// built for that mix).
//
// Version 2 (filev2.go) keeps the per-event encoding but groups events
// into CRC32C-checksummed, optionally compressed frames. Reader decodes
// both versions transparently. Only v2 is written (WriterV2); v1 is read
// for the traces captured before v2 existed, such as the seed trace in
// testdata.

var magic = [4]byte{'M', 'T', 'R', 'C'}

const formatVersion = 1

// ErrBadTrace reports a corrupt or truncated trace stream.
var ErrBadTrace = errors.New("trace: corrupt or truncated stream")

// Reader decodes a trace stream of either format version: the header's
// version byte selects the raw v1 event decoder or the checksummed v2
// frame walk, which pulls bytes from the source into the Reader's own
// buffer as it needs them (filev2.go). Errors are sticky: once ReadBatch
// or NextFrame returns one other than io.EOF, every later call returns
// it and delivers nothing.
type Reader struct {
	src     io.Reader     // v2: the source the frame walk reads from
	v1      *bufio.Reader // v1: the buffered source, over v1src
	v1src   errSource
	count   uint64
	version uint8
	err     error // the first decode error, returned from then on

	// v2 frame walk state (filev2.go).
	buf        []byte // bytes read from src; buf[pos:] is not walked yet
	pos        int
	end        error // io.EOF once src is exhausted, or src's read error
	compressed bool
	z          inflater // decompression scratch, reused
	frame      []byte   // raw event bytes of the current frame
	fpos       int
	fEvents    uint32
	evbuf      []Event // NextFrame's decoded frame, reused
}

// NewReader validates the header and prepares to decode events.
func NewReader(src io.Reader) (*Reader, error) {
	// Read only as far as the version needs: a v1 header is five bytes,
	// and the reader must not wait on a sixth. Short headers are
	// reported by parseStreamHeader; a failed read is returned as is.
	var hdr [streamHeaderLen]byte
	n, err := readHeader(src, hdr[:len(magic)+1])
	if err != nil {
		return nil, err
	}
	if n == len(magic)+1 && hdr[4] == formatVersionV2 {
		m, err := readHeader(src, hdr[n:])
		if err != nil {
			return nil, err
		}
		n += m
	}
	version, compressed, _, err := parseStreamHeader(hdr[:n])
	if err != nil {
		return nil, err
	}
	r := &Reader{version: version}
	if version == formatVersion {
		r.v1src.src = src
		r.v1 = bufio.NewReaderSize(&r.v1src, 1<<16)
	} else {
		r.src, r.compressed = src, compressed
	}
	return r, nil
}

// errSource records the first failed read of a v1 source beneath its
// bufio.Reader, so a read that fails mid-event is told apart from a
// stream that ends or overflows there.
type errSource struct {
	src io.Reader
	err error
}

func (s *errSource) Read(p []byte) (int, error) {
	n, err := s.src.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// readHeader fills p from src as far as src goes. An early EOF is not an
// error here: the short header it leaves is parseStreamHeader's to report.
func readHeader(src io.Reader, p []byte) (int, error) {
	n, err := io.ReadFull(src, p)
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		return n, nil
	}
	return n, fmt.Errorf("trace: reading header: %w", err)
}

// parseStreamHeader vets the preamble at the head of p — magic, version
// byte and, for v2, the flags byte — and returns the format version,
// the compression flag and the preamble's length.
func parseStreamHeader(p []byte) (version uint8, compressed bool, n int, err error) {
	if len(p) < len(magic)+1 {
		return 0, false, 0, fmt.Errorf("%w: missing header", ErrBadTrace)
	}
	if [4]byte(p[:4]) != magic {
		return 0, false, 0, fmt.Errorf("%w: bad magic %q", ErrBadTrace, p[:4])
	}
	switch p[4] {
	case formatVersion:
		return formatVersion, false, len(magic) + 1, nil
	case formatVersionV2:
		if len(p) < streamHeaderLen {
			return 0, false, 0, fmt.Errorf("%w: missing flags byte", ErrBadTrace)
		}
		if flags := p[5]; flags&^byte(flagFlate) != 0 {
			return 0, false, 0, fmt.Errorf("%w: unknown flags %#02x", ErrBadTrace, flags)
		}
		return formatVersionV2, p[5]&flagFlate != 0, streamHeaderLen, nil
	default:
		return 0, false, 0, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, p[4])
	}
}

// nextV1 decodes one event of a v1 stream.
func (r *Reader) nextV1() (Event, error) {
	opByte, err := r.v1.ReadByte()
	if err == io.EOF {
		return Event{}, io.EOF
	}
	if err != nil {
		return Event{}, r.v1Fail("op byte", err)
	}
	if opByte >= byte(isa.NumOps) {
		return Event{}, fmt.Errorf("%w: op byte %d", ErrBadTrace, opByte)
	}
	a, err := binary.ReadUvarint(r.v1)
	if err != nil {
		return Event{}, r.v1Fail("operand A", err)
	}
	b, err := binary.ReadUvarint(r.v1)
	if err != nil {
		return Event{}, r.v1Fail("operand B", err)
	}
	r.count++
	return Event{Op: isa.Op(opByte), A: a, B: b}, nil
}

// v1Fail classifies a failed read of a v1 event's field: the source's
// own error comes back as itself, like the v2 path's; a stream that ends
// or a varint that overflows there is a corrupt trace.
func (r *Reader) v1Fail(field string, err error) error {
	if r.v1src.err != nil {
		return fmt.Errorf("trace: reading stream: %w", r.v1src.err)
	}
	return fmt.Errorf("%w: %s: %v", ErrBadTrace, field, err)
}

// Count returns the number of events decoded so far.
func (r *Reader) Count() uint64 { return r.count }
