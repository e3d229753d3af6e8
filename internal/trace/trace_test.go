package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"memotable/internal/isa"
)

func TestMultiFansOut(t *testing.T) {
	var a, b Counter
	m := Multi{&a, &b}
	m.Emit(Event{Op: isa.OpFMul})
	m.Emit(Event{Op: isa.OpFDiv})
	if a.Total() != 2 || b.Total() != 2 {
		t.Fatalf("totals %d,%d", a.Total(), b.Total())
	}
	if a.Of(isa.OpFMul) != 1 || a.Of(isa.OpFDiv) != 1 || a.Of(isa.OpIMul) != 0 {
		t.Fatalf("counter %+v", a.Counts)
	}
}

func TestCounterReset(t *testing.T) {
	var c Counter
	c.Emit(Event{Op: isa.OpLoad})
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("reset failed")
	}
}

func TestSinkFunc(t *testing.T) {
	n := 0
	SinkFunc(func(Event) { n++ }).Emit(Event{})
	if n != 1 {
		t.Fatal("SinkFunc not invoked")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	events := make([]Event, 5000)
	for i := range events {
		events[i] = Event{
			Op: isa.Op(rng.Intn(int(isa.NumOps))),
			A:  rng.Uint64(),
			B:  rng.Uint64(),
		}
	}
	r, err := NewReader(bytes.NewReader(encodeV1(events)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := next(r)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := next(r); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
	if r.Count() != uint64(len(events)) {
		t.Fatalf("reader count %d", r.Count())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(op8 uint8, a, b uint64) bool {
		ev := Event{Op: isa.Op(op8 % uint8(isa.NumOps)), A: a, B: b}
		r, err := NewReader(bytes.NewReader(encodeV1([]Event{ev})))
		if err != nil {
			return false
		}
		got, err := next(r)
		return err == nil && got == ev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReplay(t *testing.T) {
	var events []Event
	for i := 0; i < 100; i++ {
		events = append(events, Event{Op: isa.OpFDiv, A: math.Float64bits(float64(i)), B: math.Float64bits(2)})
	}
	r, err := NewReader(bytes.NewReader(encodeV1(events)))
	if err != nil {
		t.Fatal(err)
	}
	var c Counter
	n, err := r.ReplayBatch(&c)
	if err != nil || n != 100 {
		t.Fatalf("replay = %d,%v", n, err)
	}
	if c.Of(isa.OpFDiv) != 100 {
		t.Fatalf("counter %d", c.Of(isa.OpFDiv))
	}
}

func TestReaderRejectsCorruption(t *testing.T) {
	// Bad magic.
	if _, err := NewReader(bytes.NewReader([]byte("XXXX\x01"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad magic: %v", err)
	}
	// Bad version.
	if _, err := NewReader(bytes.NewReader([]byte("MTRC\x09"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad version: %v", err)
	}
	// Truncated header.
	if _, err := NewReader(bytes.NewReader([]byte("MT"))); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: %v", err)
	}
	// Bad op byte.
	r, err := NewReader(bytes.NewReader([]byte("MTRC\x01\xFF\x00\x00")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next(r); !errors.Is(err, ErrBadTrace) {
		t.Errorf("bad op: %v", err)
	}
	// Truncated operand.
	full := encodeV1([]Event{{Op: isa.OpFMul, A: 1 << 60, B: 2}})
	trunc := full[:len(full)-3]
	r2, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next(r2); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated operand: %v", err)
	}
}

// failingReader yields data, then fails every read with err.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// A source that fails to read is an I/O error, not a corrupt trace: the
// Reader hands the source's error back, in the header and past it.
func TestReaderSurfacesReadErrors(t *testing.T) {
	errDisk := errors.New("disk on fire")
	v2 := encodeV2(t, []Event{{Op: isa.OpFMul, A: 1, B: 2}, {Op: isa.OpIMul, A: 3, B: 4}}, false)
	for _, cut := range []int{0, 3, 5, streamHeaderLen, len(v2) - 1} {
		src := &failingReader{data: v2[:cut], err: errDisk}
		r, err := NewReader(src)
		if err == nil {
			_, err = r.ReadBatch(make([]Event, 0, 16))
		}
		if !errors.Is(err, errDisk) || errors.Is(err, ErrBadTrace) {
			t.Errorf("source fails after %d bytes: got %v, want the source's error", cut, err)
		}
	}
	// A v1 stream that fails after an op byte, or inside an operand's
	// varint, hands back the source's error too; one that ends there is
	// a corrupt trace.
	v1 := []byte{'M', 'T', 'R', 'C', formatVersion, byte(isa.OpIMul), 0xac, 0x02, 0x05}
	for _, cut := range []int{len(magic) + 2, len(magic) + 3} {
		r, err := NewReader(&failingReader{data: v1[:cut], err: errDisk})
		if err == nil {
			_, err = r.ReadBatch(make([]Event, 0, 16))
		}
		if !errors.Is(err, errDisk) || errors.Is(err, ErrBadTrace) || !strings.HasPrefix(err.Error(), "trace: reading stream: ") {
			t.Errorf("v1 source fails after %d bytes: got %v, want the source's error", cut, err)
		}
		r, err = NewReader(bytes.NewReader(v1[:cut]))
		if err == nil {
			_, err = r.ReadBatch(make([]Event, 0, 16))
		}
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("v1 stream ends after %d bytes: got %v, want ErrBadTrace", cut, err)
		}
	}
	if evs := decodeAll(t, v1); len(evs) != 1 || evs[0] != (Event{Op: isa.OpIMul, A: 300, B: 5}) {
		t.Errorf("whole v1 stream decoded to %v", evs)
	}
	// A short stream that ends cleanly is still a corrupt trace.
	if _, err := NewReader(bytes.NewReader(v2[:3])); !errors.Is(err, ErrBadTrace) {
		t.Errorf("short header: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(v2[:5])); !errors.Is(err, ErrBadTrace) {
		t.Errorf("v2 header without flags: %v", err)
	}
}
