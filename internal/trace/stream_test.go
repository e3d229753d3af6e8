package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// Per-frame pulls (Reader.NextFrame) of a stream that is still being
// written. A live producer's stream reaches the Reader in reads of any
// size, and may stop mid-frame; the sources below stand in for it.

// errStillOpen stands for a producer that has not finished its stream:
// a source returns it where the written bytes run out.
var errStillOpen = errors.New("producer still writing")

// chunkSource hands out data in reads of the sizes next returns and
// returns end (io.EOF for a finished stream) with the last of them, as
// io.Reader allows, so a reader must use those bytes before it acts on
// end. read counts the bytes handed out.
type chunkSource struct {
	data []byte
	next func() int
	end  error
	read int
}

func (c *chunkSource) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, c.end
	}
	n := copy(p, c.data[:min(len(c.data), c.next())])
	c.data = c.data[n:]
	c.read += n
	if len(c.data) == 0 {
		return n, c.end
	}
	return n, nil
}

// fixedChunks returns reads of n bytes.
func fixedChunks(n int) func() int { return func() int { return n } }

// randomChunks returns reads of 1 to max bytes drawn from rng.
func randomChunks(rng *rand.Rand, max int) func() int {
	return func() int { return 1 + rng.Intn(max) }
}

// pullFrames reads src frame by frame with NextFrame and returns the
// events of every frame delivered and the error that ended the stream
// (io.EOF at a clean end), from NewReader or NextFrame.
func pullFrames(src io.Reader) ([]Event, error) {
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	var got []Event
	for {
		evs, err := r.NextFrame()
		if err != nil {
			return got, err
		}
		got = append(got, evs...)
	}
}

// TestStreamDecoderChunkedRoundTrip reads a multi-frame stream frame by
// frame from sources of several read sizes — one byte at a time, bytes
// that arrive with io.EOF, the whole stream at once — and checks the
// exact encoded events arrive with a clean EOF and the Reader counts
// them.
func TestStreamDecoderChunkedRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		events := randomEvents(60000, 21)
		data := encodeV2(t, events, compress)
		sources := map[string]func() io.Reader{
			"one byte":   func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"data+EOF":   func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
			"whole":      func() io.Reader { return bytes.NewReader(data) },
			"7 bytes":    func() io.Reader { return &chunkSource{data: data, next: fixedChunks(7), end: io.EOF} },
			"1000 bytes": func() io.Reader { return &chunkSource{data: data, next: fixedChunks(1000), end: io.EOF} },
			"64 KiB":     func() io.Reader { return &chunkSource{data: data, next: fixedChunks(64 << 10), end: io.EOF} },
		}
		for name, src := range sources {
			r, err := NewReader(src())
			if err != nil {
				t.Fatal(err)
			}
			var got []Event
			frames := 0
			for {
				evs, err := r.NextFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("compress=%v %s: NextFrame: %v", compress, name, err)
				}
				got = append(got, evs...)
				frames++
			}
			if !slices.Equal(got, events) {
				t.Fatalf("compress=%v %s: decoded %d events, not the %d encoded", compress, name, len(got), len(events))
			}
			if r.Count() != uint64(len(events)) || frames < 2 {
				t.Fatalf("compress=%v %s: count %d in %d frames", compress, name, r.Count(), frames)
			}
			if _, err := r.NextFrame(); err != io.EOF {
				t.Fatalf("compress=%v %s: NextFrame past the end: %v, want io.EOF", compress, name, err)
			}
		}
	}
}

// TestStreamDecoderRandomChunksMatchReader is the differential pin: for
// random read sizes of the same stream, the frame-by-frame event
// sequence is identical to ReadBatch's, and every byte is read.
func TestStreamDecoderRandomChunksMatchReader(t *testing.T) {
	events := randomEvents(30000, 22)
	data := encodeV2(t, events, true)
	want := decodeAll(t, data)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		src := &chunkSource{data: data, next: randomChunks(rng, 32<<10), end: io.EOF}
		got, err := pullFrames(src)
		if err != io.EOF {
			t.Fatalf("trial %d: final err = %v, want io.EOF", trial, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d events differ from the Reader's %d", trial, len(got), len(want))
		}
		if src.read != len(data) {
			t.Fatalf("trial %d: read %d of %d bytes", trial, src.read, len(data))
		}
	}
}

// A source that stops mid-frame with an error hands that error back
// after every frame that came whole before it, and nothing of the
// partial frame; one that ends there (io.EOF) leaves a torn stream.
// That is the split between a producer that is still writing and a torn
// file.
func TestStreamDecoderTornTail(t *testing.T) {
	events := randomEvents(60000, 24)
	data := encodeV2(t, events, false)
	// Cut inside the last frame's payload.
	cut := len(data) - 100
	whole := wholeEvents(t, data, cut)

	t.Run("open tail waits", func(t *testing.T) {
		got, err := pullFrames(&chunkSource{data: data[:cut], next: fixedChunks(8 << 10), end: errStillOpen})
		if !errors.Is(err, errStillOpen) || errors.Is(err, ErrBadTrace) {
			t.Fatalf("err = %v, want the source's error", err)
		}
		if len(got) != whole || !slices.Equal(got, events[:whole]) {
			t.Fatalf("delivered %d events, want the %d of the whole frames", len(got), whole)
		}

		// A producer that pauses mid-frame: the frames before the pause
		// are delivered while the read blocks, and the stream ends
		// cleanly once the rest arrives.
		pr, pw := io.Pipe()
		delivered := make(chan int, len(frameBoundaries(data)))
		done := make(chan error, 1)
		var live []Event
		go func() {
			r, err := NewReader(pr)
			for err == nil {
				var evs []Event
				if evs, err = r.NextFrame(); err == nil {
					live = append(live, evs...)
					delivered <- len(live)
				}
			}
			done <- err
		}()
		if _, err := pw.Write(data[:cut]); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < whole; {
			select {
			case n = <-delivered:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d events delivered while the source blocks mid-frame", n, whole)
			}
		}
		if _, err := pw.Write(data[cut:]); err != nil {
			t.Fatal(err)
		}
		_ = pw.Close()
		if err := <-done; err != io.EOF {
			t.Fatalf("final err = %v, want io.EOF", err)
		}
		if !slices.Equal(live, events) {
			t.Fatalf("decoded %d events, want %d", len(live), len(events))
		}
	})

	t.Run("sealed tail is torn", func(t *testing.T) {
		got, err := pullFrames(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrBadTrace) || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("err = %v, want a torn ErrBadTrace", err)
		}
		if len(got) != whole {
			t.Fatalf("delivered %d events, want %d", len(got), whole)
		}
	})

	// Every cut offset must classify the same way: a source still open
	// → its own error, a source at its end → ErrBadTrace — except at the
	// self-delimiting boundaries (end of header, end of a frame), where
	// an ended cut is indistinguishable from a shorter complete stream
	// and reads as a clean io.EOF. Catching those cuts is the store seal
	// trailer's job, not the framing's.
	t.Run("every offset", func(t *testing.T) {
		small := encodeV2(t, randomEvents(50, 25), false)
		boundaries := map[int]bool{streamHeaderLen: true, len(small): true}
		for cut := 0; cut < len(small); cut++ {
			_, err := pullFrames(&chunkSource{data: small[:cut], next: fixedChunks(len(small)), end: errStillOpen})
			if !errors.Is(err, errStillOpen) || errors.Is(err, ErrBadTrace) {
				t.Fatalf("open cut %d: err = %v, want the source's error", cut, err)
			}
			_, err = pullFrames(bytes.NewReader(small[:cut]))
			if boundaries[cut] {
				if err != io.EOF {
					t.Fatalf("ended boundary cut %d: err = %v, want io.EOF", cut, err)
				}
			} else if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("ended cut %d: err = %v, want ErrBadTrace", cut, err)
			}
		}
	})
}

// wholeEvents returns the events of the frames of an uncompressed
// stream that lie whole in data[:cut].
func wholeEvents(t *testing.T, data []byte, cut int) int {
	t.Helper()
	cuts, n := frameBoundaries(data), 0
	for i := 0; i+1 < len(cuts) && cuts[i+1] <= cut; i++ {
		f, err := parseFrame(data[cuts[i]:], false)
		if err != nil {
			t.Fatal(err)
		}
		n += int(f.events)
	}
	return n
}

// TestStreamDecoderEveryPrefix reads every prefix of a small multi-frame
// stream, plain and compressed, in several read sizes. From a source
// that stops with an error after the prefix, NextFrame yields exactly
// the events of the frames that lie whole in the prefix, then that
// error. From a source that ends after it, the same events, then io.EOF
// if the prefix ends at a frame boundary and ErrBadTrace anywhere else.
// ReadBatch takes the same walk, so over the same prefix it must read
// the same events and end the same way.
func TestStreamDecoderEveryPrefix(t *testing.T) {
	const perFrame = 9
	events := randomEvents(60, 28)
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w, err := NewWriterV2(&buf, compress)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			w.Emit(ev)
			if i%perFrame == perFrame-1 {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		cuts := frameBoundaries(data) // the header's end, then every frame's
		if wantFrames := (len(events) + perFrame - 1) / perFrame; len(cuts) != wantFrames+1 || cuts[wantFrames] != len(data) {
			t.Fatalf("compress=%v: frame ends %v in %d bytes, want %d frames", compress, cuts, len(data), wantFrames)
		}
		for cut := 0; cut <= len(data); cut++ {
			whole := 0 // frames that lie whole in data[:cut]
			for _, c := range cuts[1:] {
				if c <= cut {
					whole++
				}
			}
			want := events[:min(whole*perFrame, len(events))]
			boundary := slices.Contains(cuts, cut)
			for _, chunk := range []int{1, 5, 64, max(cut, 1)} {
				got, err := pullFrames(&chunkSource{data: data[:cut], next: fixedChunks(chunk), end: errStillOpen})
				if !errors.Is(err, errStillOpen) || errors.Is(err, ErrBadTrace) || !slices.Equal(got, want) {
					t.Fatalf("compress=%v cut=%d chunk=%d: open stream gave %d events and %v, want %d and the source's error",
						compress, cut, chunk, len(got), err, len(want))
				}
				got, err = pullFrames(&chunkSource{data: data[:cut], next: fixedChunks(chunk), end: io.EOF})
				if boundary && err != io.EOF || !boundary && !errors.Is(err, ErrBadTrace) {
					t.Fatalf("compress=%v cut=%d chunk=%d (boundary %v): ended stream err = %v", compress, cut, chunk, boundary, err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("compress=%v cut=%d chunk=%d: ended stream gave %d events, want %d", compress, cut, chunk, len(got), len(want))
				}
			}

			r, err := NewReader(bytes.NewReader(data[:cut]))
			var pulled Recorder
			if err == nil {
				_, err = r.ReplayBatch(&pulled)
			}
			if boundary && err != nil || !boundary && !errors.Is(err, ErrBadTrace) || !slices.Equal(pulled.Events, want) {
				t.Fatalf("compress=%v cut=%d (boundary %v): Reader gave %d events and %v, want %d",
					compress, cut, boundary, len(pulled.Events), err, len(want))
			}
		}
	}
}

// TestStreamDecoderEmptyStream: a header-only stream is a valid, empty
// capture; no bytes at all is a torn header.
func TestStreamDecoderEmptyStream(t *testing.T) {
	got, err := pullFrames(bytes.NewReader(encodeV2(t, nil, false)))
	if err != io.EOF || len(got) != 0 {
		t.Fatalf("header-only stream: %d events, err = %v, want none and io.EOF", len(got), err)
	}
	if _, err := pullFrames(bytes.NewReader(nil)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("zero-byte stream err = %v, want ErrBadTrace", err)
	}
}

// TestStreamDecoderMidStreamCorruption flips one byte of a mid-stream
// frame payload: the damaged frame must fail its checksum even though
// the source is still open, and the preceding frames must already have
// been delivered intact.
func TestStreamDecoderMidStreamCorruption(t *testing.T) {
	events := randomEvents(60000, 26)
	data := encodeV2(t, events, false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40

	r, err := NewReader(&chunkSource{data: corrupt, next: fixedChunks(len(corrupt)), end: errStillOpen})
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for err == nil {
		var evs []Event
		evs, err = r.NextFrame()
		got = append(got, evs...)
	}
	if !errors.Is(err, ErrBadTrace) || errors.Is(err, errStillOpen) {
		t.Fatalf("err = %v, want hard ErrBadTrace", err)
	}
	// The error is sticky: nothing past the damaged frame is read.
	if evs, again := r.NextFrame(); again != err || len(evs) != 0 {
		t.Fatalf("NextFrame after the failure: %d events, %v; want none and %v", len(evs), again, err)
	}
	if len(got) == 0 {
		t.Fatalf("frames before the corruption should have been delivered")
	}
	if !slices.Equal(got, events[:len(got)]) {
		t.Fatalf("delivered events differ from the encoded stream")
	}
}

// TestStreamDecoderRejectsBadHeaders: wrong magic, v1 streams, and
// unknown flag bits are corruption, not wait states, even while the
// source is still open.
func TestStreamDecoderRejectsBadHeaders(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":     []byte("XTRC\x02\x00"),
		"v1 stream":     []byte("MTRC\x01\x00\x01\x02"),
		"future":        []byte("MTRC\x09\x00"),
		"unknown flags": []byte("MTRC\x02\x80"),
	}
	for name, hdr := range cases {
		_, err := pullFrames(&chunkSource{data: hdr, next: fixedChunks(len(hdr)), end: errStillOpen})
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
	if _, err := pullFrames(bytes.NewReader(cases["v1 stream"])); err == nil || !strings.Contains(err.Error(), "v2") {
		t.Errorf("v1 stream: err = %v, want one that names v2", err)
	}
}

// TestStreamDecoderCompaction pins that a Reader pulling a long stream
// does not accumulate consumed bytes: before each read the walked prefix
// is dropped, so the buffer holds at most one partial frame plus one
// read.
func TestStreamDecoderCompaction(t *testing.T) {
	events := randomEvents(60000, 27)
	data := encodeV2(t, events, false)
	r, err := NewReader(&chunkSource{data: data, next: fixedChunks(16 << 10), end: io.EOF})
	if err != nil {
		t.Fatal(err)
	}
	maxBuf, maxCap := 0, 0
	for {
		if _, err := r.NextFrame(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		maxBuf = max(maxBuf, len(r.buf)-r.pos)
		maxCap = max(maxCap, cap(r.buf))
	}
	// The backlog must stay bounded by roughly one frame plus one read,
	// and the buffer must not grow with the stream.
	if limit := maxFrameStored + 32<<10; maxBuf > limit {
		t.Fatalf("buffered backlog reached %d bytes, want <= %d", maxBuf, limit)
	}
	if limit := 2 * (readChunk + maxFrameStored); maxCap > limit {
		t.Fatalf("buffer grew to %d bytes, want <= %d", maxCap, limit)
	}
}
