package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"

	"memotable/internal/isa"
)

// decodeBenchEvents is the length of BenchmarkDecode's event stream.
const decodeBenchEvents = 1 << 20

// Operand kinds, by encoded length.
const (
	kindSmall = iota // small integers: 1 byte
	kindMid          // 2 or 3 bytes
	kindAddr         // load and store addresses: 5 bytes
	kindFP           // positive FP bit patterns: 9 bytes
	kindNegFP        // negative FP bit patterns: 10 bytes
)

// decodeBenchKind draws an operand kind with the varint-length mix of
// the tiny experiment registry's stored traces (31.5 M operands): 30%
// take one byte, 2.2% two or three, 6.3% five, 51% nine and 9.8% ten.
func decodeBenchKind(rng *rand.Rand) int {
	switch p := rng.Intn(1000); {
	case p < 301:
		return kindSmall
	case p < 323:
		return kindMid
	case p < 386:
		return kindAddr
	case p < 902:
		return kindFP
	default:
		return kindNegFP
	}
}

// decodeBenchOperand draws a fresh operand value of the given kind.
func decodeBenchOperand(rng *rand.Rand, kind int) uint64 {
	switch kind {
	case kindSmall:
		return uint64(rng.Intn(1 << 7))
	case kindMid:
		return 1<<7 + uint64(rng.Intn(1<<21-1<<7))
	case kindAddr:
		return 1<<28 + uint64(rng.Int63n(1<<35-1<<28))
	case kindFP:
		return math.Float64bits(0.001 + 1000*rng.Float64())
	default:
		return math.Float64bits(-0.001 - 1000*rng.Float64())
	}
}

// decodeBenchStream builds BenchmarkDecode's deterministic stream, shaped
// like a captured kernel: a loop body of 4 to 16 slots, each a fixed op
// with fixed operand kinds, repeats with fresh operand values, and a new
// body starts every 4096 events. Operand lengths thus follow the
// registry's mix and repeat the way a loop's do, which is what a
// branching decoder's predictor sees in real traces.
func decodeBenchStream() []Event {
	type slot struct {
		op     isa.Op
		ka, kb int
	}
	rng := rand.New(rand.NewSource(15))
	evs := make([]Event, decodeBenchEvents)
	var body []slot
	for i := range evs {
		if i%4096 == 0 {
			body = body[:0]
			for n := 4 + rng.Intn(13); n > 0; n-- {
				body = append(body, slot{isa.Op(rng.Intn(int(isa.NumOps))), decodeBenchKind(rng), decodeBenchKind(rng)})
			}
		}
		s := body[i%len(body)]
		evs[i] = Event{Op: s.op, A: decodeBenchOperand(rng, s.ka), B: decodeBenchOperand(rng, s.kb)}
	}
	return evs
}

// BenchmarkDecode measures the v2 read path per event over a generated
// stream of about 1 M events held in memory: a Reader over plain frames,
// a Reader over compressed frames, and VerifyBytes, which checks frames
// without decoding them.
func BenchmarkDecode(b *testing.B) {
	evs := decodeBenchStream()
	plain := encodeV2(b, evs, false)
	packed := encodeV2(b, evs, true)
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
	}
	decode := func(data []byte) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			batch := make([]Event, 0, 8192)
			for i := 0; i < b.N; i++ {
				r, err := NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					out, err := r.ReadBatch(batch)
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n += len(out)
				}
				if n != len(evs) {
					b.Fatalf("decoded %d of %d events", n, len(evs))
				}
			}
			perEvent(b)
		}
	}
	b.Run("reader", decode(plain))
	b.Run("compressed", decode(packed))
	b.Run("verify", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		for i := 0; i < b.N; i++ {
			n, err := VerifyBytes(plain)
			if err != nil || n != uint64(len(evs)) {
				b.Fatalf("VerifyBytes = %d, %v", n, err)
			}
		}
		perEvent(b)
	})
}

// encodeBenchSink counts the bytes a WriterV2 writes and keeps none, so
// BenchmarkEncode times the encoder alone.
type encodeBenchSink struct{ n int64 }

func (s *encodeBenchSink) Write(p []byte) (int, error) {
	s.n += int64(len(p))
	return len(p), nil
}

// BenchmarkEncode measures WriterV2 per event over BenchmarkDecode's
// generated stream, with plain and with compressed frames.
func BenchmarkEncode(b *testing.B) {
	evs := decodeBenchStream()
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"plain", false}, {"compressed", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var out encodeBenchSink
			for i := 0; i < b.N; i++ {
				out.n = 0
				w, err := NewWriterV2(&out, tc.compress)
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range evs {
					w.Emit(ev)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(out.n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
		})
	}
}
