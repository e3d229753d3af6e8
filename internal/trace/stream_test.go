package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
)

// drainFrames pulls every currently decodable frame, appending events to
// got, and returns the first non-nil "no frame" condition (ErrStreamOpen,
// io.EOF, or a corruption error).
func drainFrames(d *StreamDecoder, got *[]Event) error {
	for {
		evs, err := d.NextFrame()
		if err != nil {
			return err
		}
		*got = append(*got, evs...)
	}
}

// TestStreamDecoderChunkedRoundTrip feeds a multi-frame stream in chunks
// of several fixed sizes — including one byte at a time — and checks the
// decoder delivers exactly the encoded events with a clean EOF.
func TestStreamDecoderChunkedRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		events := randomEvents(60000, 21)
		data := encodeV2(t, events, compress)
		for _, chunk := range []int{1, 7, 1000, 64 << 10, len(data)} {
			d := NewStreamDecoder()
			var got []Event
			for off := 0; off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				d.Feed(data[off:end])
				if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
					t.Fatalf("compress=%v chunk=%d: mid-stream drain err = %v, want ErrStreamOpen", compress, chunk, err)
				}
			}
			d.CloseInput()
			if err := drainFrames(d, &got); err != io.EOF {
				t.Fatalf("compress=%v chunk=%d: final drain err = %v, want io.EOF", compress, chunk, err)
			}
			if len(got) != len(events) {
				t.Fatalf("compress=%v chunk=%d: decoded %d events, want %d", compress, chunk, len(got), len(events))
			}
			for i := range got {
				if got[i] != events[i] {
					t.Fatalf("compress=%v chunk=%d: event %d = %+v, want %+v", compress, chunk, i, got[i], events[i])
				}
			}
			if d.Events() != uint64(len(events)) || d.Frames() == 0 {
				t.Fatalf("compress=%v chunk=%d: counters events=%d frames=%d", compress, chunk, d.Events(), d.Frames())
			}
			if d.BytesIn() != int64(len(data)) {
				t.Fatalf("compress=%v chunk=%d: BytesIn = %d, want %d", compress, chunk, d.BytesIn(), len(data))
			}
		}
	}
}

// TestStreamDecoderRandomChunksMatchReader is the differential pin: for
// random chunkings of the same stream, the decoder's event sequence is
// identical to the pull Reader's.
func TestStreamDecoderRandomChunksMatchReader(t *testing.T) {
	events := randomEvents(30000, 22)
	data := encodeV2(t, events, true)
	want := decodeAll(t, data)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		d := NewStreamDecoder()
		var got []Event
		for off := 0; off < len(data); {
			n := 1 + rng.Intn(32<<10)
			if off+n > len(data) {
				n = len(data) - off
			}
			d.Feed(data[off : off+n])
			off += n
			if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
				t.Fatalf("trial %d: drain err = %v", trial, err)
			}
		}
		d.CloseInput()
		if err := drainFrames(d, &got); err != io.EOF {
			t.Fatalf("trial %d: final err = %v, want io.EOF", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d differs", trial, i)
			}
		}
	}
}

// A torn tail is "stream open" while input may still arrive, and becomes
// a hard corruption error the moment CloseInput declares it final — the
// semantic split that distinguishes a live socket from a torn file.
func TestStreamDecoderTornTail(t *testing.T) {
	events := randomEvents(60000, 24)
	data := encodeV2(t, events, false)
	// Cut inside the last frame's payload.
	cut := len(data) - 100

	t.Run("open tail waits", func(t *testing.T) {
		d := NewStreamDecoder()
		d.Feed(data[:cut])
		var got []Event
		if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
			t.Fatalf("drain err = %v, want ErrStreamOpen", err)
		}
		if len(got) == 0 || len(got) >= len(events) {
			t.Fatalf("complete frames should deliver some but not all events (got %d of %d)", len(got), len(events))
		}
		// The missing bytes arrive: the stream completes cleanly.
		d.Feed(data[cut:])
		d.CloseInput()
		if err := drainFrames(d, &got); err != io.EOF {
			t.Fatalf("final err = %v, want io.EOF", err)
		}
		if len(got) != len(events) {
			t.Fatalf("decoded %d events, want %d", len(got), len(events))
		}
	})

	t.Run("sealed tail is torn", func(t *testing.T) {
		d := NewStreamDecoder()
		d.Feed(data[:cut])
		d.CloseInput()
		var got []Event
		err := drainFrames(d, &got)
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("drain err = %v, want ErrBadTrace", err)
		}
		if errors.Is(err, ErrStreamOpen) {
			t.Fatalf("sealed torn tail must not read as still-open: %v", err)
		}
	})

	// Every cut offset must classify the same way: open → ErrStreamOpen,
	// sealed → ErrBadTrace — except at the self-delimiting boundaries
	// (end of header, end of a frame), where a sealed cut is
	// indistinguishable from a shorter complete stream and reads as a
	// clean io.EOF. Catching those cuts is the store seal trailer's job,
	// not the framing's.
	t.Run("every offset", func(t *testing.T) {
		small := encodeV2(t, randomEvents(50, 25), false)
		boundaries := map[int]bool{streamHeaderLen: true, len(small): true}
		for cut := 0; cut < len(small); cut++ {
			d := NewStreamDecoder()
			d.Feed(small[:cut])
			var got []Event
			if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
				t.Fatalf("open cut %d: err = %v, want ErrStreamOpen", cut, err)
			}
			d.CloseInput()
			err := drainFrames(d, &got)
			if boundaries[cut] {
				if err != io.EOF {
					t.Fatalf("sealed boundary cut %d: err = %v, want io.EOF", cut, err)
				}
			} else if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("sealed cut %d: err = %v, want ErrBadTrace", cut, err)
			}
		}
	})
}

// TestStreamDecoderEveryPrefix feeds every prefix of a small multi-frame
// stream, plain and compressed, in several chunkings. While the input is
// open, NextFrame yields exactly the events of the frames that lie whole
// in the prefix, then ErrStreamOpen. After CloseInput it returns io.EOF
// if the prefix ends at a frame boundary and ErrBadTrace anywhere else,
// with no further events. The pull Reader takes the same walk, so over
// the same prefix it must read the same events and end the same way.
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
				d := NewStreamDecoder()
				var got []Event
				for off := 0; off < cut; off += chunk {
					d.Feed(data[off:min(off+chunk, cut)])
					if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
						t.Fatalf("compress=%v cut=%d chunk=%d: open drain err = %v, want ErrStreamOpen", compress, cut, chunk, err)
					}
				}
				if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) || !slices.Equal(got, want) {
					t.Fatalf("compress=%v cut=%d chunk=%d: open stream gave %d events and %v, want %d and ErrStreamOpen",
						compress, cut, chunk, len(got), err, len(want))
				}
				d.CloseInput()
				err := drainFrames(d, &got)
				if boundary && err != io.EOF || !boundary && (!errors.Is(err, ErrBadTrace) || errors.Is(err, ErrStreamOpen)) {
					t.Fatalf("compress=%v cut=%d chunk=%d (boundary %v): sealed drain err = %v", compress, cut, chunk, boundary, err)
				}
				if len(got) != len(want) {
					t.Fatalf("compress=%v cut=%d chunk=%d: %d events after CloseInput, want none", compress, cut, chunk, len(got)-len(want))
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
	d := NewStreamDecoder()
	d.Feed(encodeV2(t, nil, false))
	d.CloseInput()
	var got []Event
	if err := drainFrames(d, &got); err != io.EOF {
		t.Fatalf("header-only stream err = %v, want io.EOF", err)
	}
	if len(got) != 0 || d.Events() != 0 {
		t.Fatalf("empty stream delivered %d events", len(got))
	}

	d = NewStreamDecoder()
	d.CloseInput()
	if err := drainFrames(d, &got); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("zero-byte sealed stream err = %v, want ErrBadTrace", err)
	}
}

// TestStreamDecoderMidStreamCorruption flips one byte of a mid-stream
// frame payload: the damaged frame must fail its checksum even though
// the stream is still open, and the preceding frames must already have
// been delivered intact.
func TestStreamDecoderMidStreamCorruption(t *testing.T) {
	events := randomEvents(60000, 26)
	data := encodeV2(t, events, false)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40

	d := NewStreamDecoder()
	d.Feed(corrupt)
	var got []Event
	err := drainFrames(d, &got)
	if !errors.Is(err, ErrBadTrace) || errors.Is(err, ErrStreamOpen) {
		t.Fatalf("drain err = %v, want hard ErrBadTrace", err)
	}
	if len(got) == 0 {
		t.Fatalf("frames before the corruption should have been delivered")
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("delivered event %d differs from the encoded stream", i)
		}
	}
}

// TestStreamDecoderRejectsBadHeaders: wrong magic, v1 streams, and
// unknown flag bits are corruption, not wait states.
func TestStreamDecoderRejectsBadHeaders(t *testing.T) {
	cases := map[string][]byte{
		"bad magic":     []byte("XTRC\x02\x00"),
		"v1 stream":     []byte("MTRC\x01"),
		"future":        []byte("MTRC\x09\x00"),
		"unknown flags": []byte("MTRC\x02\x80"),
	}
	for name, hdr := range cases {
		d := NewStreamDecoder()
		d.Feed(hdr)
		// Pad v1's short header so the preamble is complete.
		if len(hdr) < streamHeaderLen {
			d.Feed(make([]byte, streamHeaderLen-len(hdr)))
		}
		if _, err := d.NextFrame(); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: err = %v, want ErrBadTrace", name, err)
		}
	}
}

// TestStreamDecoderCompaction pins that a drained decoder does not
// accumulate consumed bytes: after draining, feeding more compacts the
// buffer down to the open tail.
func TestStreamDecoderCompaction(t *testing.T) {
	events := randomEvents(60000, 27)
	data := encodeV2(t, events, false)
	d := NewStreamDecoder()
	var got []Event
	maxBuf := 0
	for off := 0; off < len(data); off += 16 << 10 {
		end := off + 16<<10
		if end > len(data) {
			end = len(data)
		}
		d.Feed(data[off:end])
		if err := drainFrames(d, &got); !errors.Is(err, ErrStreamOpen) {
			t.Fatalf("drain err = %v", err)
		}
		if d.Buffered() > maxBuf {
			maxBuf = d.Buffered()
		}
	}
	// The backlog must stay bounded by roughly one frame plus one chunk,
	// not grow with the stream.
	if limit := maxFrameStored + 32<<10; maxBuf > limit {
		t.Fatalf("buffered backlog reached %d bytes, want <= %d", maxBuf, limit)
	}
}
