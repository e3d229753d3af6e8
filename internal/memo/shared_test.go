package memo

import (
	"math/rand"
	"sync"
	"testing"

	"memotable/internal/isa"
)

// stream builds a deterministic operand stream with heavy reuse and some
// commutative reversed pairs.
func stream(op isa.Op, n int) [][2]uint64 {
	rng := rand.New(rand.NewSource(42))
	out := make([][2]uint64, 0, n)
	enc := func(v float64) uint64 { return fbits(v) }
	if op == isa.OpIMul {
		enc = func(v float64) uint64 { return uint64(int64(v * 4)) }
	}
	for i := 0; i < n; i++ {
		a := enc(float64(rng.Intn(96)) + 0.5)
		b := enc(float64(rng.Intn(12)) + 2)
		if rng.Intn(4) == 0 {
			a, b = b, a // reversed-operand duplicates for commutative classes
		}
		out = append(out, [2]uint64{a, b})
	}
	return out
}

// feed pushes the stream through a shared table's Access.
func feed(s *Shared, events [][2]uint64) {
	for _, ev := range events {
		a, b := ev[0], ev[1]
		s.Access(a, b, func() uint64 { return a*3 + b })
	}
}

// TestSharedConcurrentMatchesSerial is the -race hammer: many goroutines
// drive a shared infinite table, whose hit/miss totals are
// order-independent (first access of a key misses and inserts, all others
// hit, and a commutative class's reversed twin resolves under the same
// lock), so the final statistics must equal a serial run's.
func TestSharedConcurrentMatchesSerial(t *testing.T) {
	for _, op := range []isa.Op{isa.OpIMul, isa.OpFMul, isa.OpFDiv} {
		events := stream(op, 40000)
		serial := NewShared(New(op, Infinite()), 8)
		feed(serial, events)

		hammered := NewShared(New(op, Infinite()), 8)
		const workers = 8
		var wg sync.WaitGroup
		chunk := (len(events) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(events))
			wg.Add(1)
			go func(part [][2]uint64) {
				defer wg.Done()
				feed(hammered, part)
			}(events[lo:hi])
		}
		wg.Wait()

		if got, want := hammered.Stats(), serial.Stats(); got != want {
			t.Fatalf("%v: concurrent stats %+v diverge from serial %+v", op, got, want)
		}
	}
}
