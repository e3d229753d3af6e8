package trace

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// checkUvarint compares uvarint with its oracle, binary.Uvarint, on b and
// on every prefix of b, so both the word path and the short-tail fallback
// see each input.
func checkUvarint(t *testing.T, b []byte) {
	t.Helper()
	for n := len(b); n >= 0; n-- {
		wantX, wantN := binary.Uvarint(b[:n])
		gotX, gotN := uvarint(b[:n])
		if gotX != wantX || gotN != wantN {
			t.Fatalf("uvarint(% x) = (%#x, %d), binary.Uvarint = (%#x, %d)",
				b[:n], gotX, gotN, wantX, wantN)
		}
	}
}

// TestUvarintMatchesStdlib pins the edge cases: every encoding length
// with and without trailing bytes, non-minimal encodings, and each
// overflow shape binary.Uvarint distinguishes.
func TestUvarintMatchesStdlib(t *testing.T) {
	pad := func(p ...byte) []byte {
		return append(p, 0x55, 0x81, 0x7f, 0x80, 0x00, 0xff, 0x01, 0x80, 0x80, 0x00, 0x12, 0x34, 0x56, 0x78)
	}
	cases := [][]byte{
		pad(0x00),
		pad(0x7f),
		pad(0x80, 0x00), // non-minimal zero
		pad(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		pad(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00),       // 9-byte non-minimal
		pad(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),       // 9 bytes, 63 bits
		pad(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // MaxUint64
		pad(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00), // 10-byte non-minimal
		pad(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), // overflow at byte 10
		pad(0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80), // no terminator
		pad(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, // exactly ten continuation bytes
	}
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []uint64{0, 1, 127, 128, 1 << 14, 1<<21 - 1, 1 << 35, 1<<56 - 1, 1 << 56, 1<<63 - 1, 1 << 63, ^uint64(0)} {
		n := binary.PutUvarint(buf[:], v)
		cases = append(cases, pad(buf[:n]...))
	}
	for _, c := range cases {
		checkUvarint(t, c)
	}
	rng := rand.New(rand.NewSource(1))
	b := make([]byte, 24)
	for i := 0; i < 200000; i++ {
		rng.Read(b)
		// Bias toward long encodings: set continuation bits on a prefix.
		for j := 0; j < rng.Intn(12); j++ {
			b[j] |= 0x80
		}
		checkUvarint(t, b)
	}
}

// checkPutUvarint compares putUvarint with its oracle,
// binary.PutUvarint, on x: the same length and the same bytes.
func checkPutUvarint(t *testing.T, x uint64) {
	t.Helper()
	var want, got [binary.MaxVarintLen64]byte
	wantN := binary.PutUvarint(want[:], x)
	gotN := putUvarint(got[:], x)
	if gotN != wantN || string(got[:gotN]) != string(want[:wantN]) {
		t.Fatalf("putUvarint(%#x) = % x, binary.PutUvarint = % x", x, got[:gotN], want[:wantN])
	}
}

// TestPutUvarintMatchesStdlib checks putUvarint at both ends of every
// encoding length and on values of random bit length.
func TestPutUvarintMatchesStdlib(t *testing.T) {
	for k := 0; k <= 64; k++ {
		if k < 64 {
			checkPutUvarint(t, 1<<k)
		}
		checkPutUvarint(t, 1<<k-1)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		checkPutUvarint(t, rng.Uint64()>>rng.Intn(64))
	}
}

// FuzzUvarintMatchesStdlib drives uvarint and binary.Uvarint with the
// same arbitrary bytes (and all their prefixes) and requires the same
// value and length, overflow and short input included. It also encodes
// the value the input's first bytes spell with putUvarint and
// binary.PutUvarint and requires the same bytes.
func FuzzUvarintMatchesStdlib(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0xe3, 0x8f, 0xa1, 0xc4, 0xd2, 0xb7, 0x9e, 0xf3, 0x3f, 0x00, 0x05, 0x9a, 0x01, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkUvarint(t, b)
		var word [8]byte
		copy(word[:], b)
		x := binary.LittleEndian.Uint64(word[:])
		checkPutUvarint(t, x)
		if len(b) > 8 {
			checkPutUvarint(t, x>>(b[8]%64))
		}
	})
}
