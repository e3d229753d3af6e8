package trace

import (
	"encoding/binary"
	"math/bits"
)

// Word-at-a-time unsigned varints. Trace operands are mostly FP bit
// patterns: over the tiny experiment registry, 61% of operand varints
// are 9 or 10 bytes long, so the byte-at-a-time loops of binary.Uvarint
// and binary.PutUvarint run nine or ten iterations on most operands.
// uvarint instead loads eight bytes as one word, finds the terminating
// byte from the word's continuation bits, and packs the 7-bit groups
// with shifts and masks. It keeps one branch per length class: stored
// operand lengths repeat with the loop that produced them, so the
// branches predict well, and a branch-free form measured slower on
// stored traces. putUvarint, the encoder, spreads the groups the same
// way and stores them as one word.

const (
	// contBits selects the continuation bit of every byte in a word.
	contBits = 0x8080808080808080
	// groupBits selects the 7 payload bits of every byte in a word.
	groupBits = 0x7f7f7f7f7f7f7f7f
)

// uvarint decodes an unsigned varint from the head of b. It returns
// exactly what binary.Uvarint(b) returns for every input — non-minimal
// encodings, overflow (n < 0) and short input (n == 0) included — and
// binary.Uvarint is its test oracle.
func uvarint(b []byte) (uint64, int) {
	if len(b) <= binary.MaxVarintLen64 {
		// Near a frame's tail. binary.Uvarint reports ten continuation
		// bytes as overflow only when an eleventh byte follows (else as
		// short input), so the word path needs at least eleven.
		return binary.Uvarint(b)
	}
	w := binary.LittleEndian.Uint64(b)
	if stop := ^w & contBits; stop != 0 {
		// Byte i ends the varint; stop^(stop-1) keeps bytes 0..i.
		return pack7(w & (stop ^ (stop - 1))), bits.TrailingZeros64(stop)>>3 + 1
	}
	x := pack7(w)
	b8 := b[8]
	if b8 < 0x80 {
		return x | uint64(b8)<<56, 9
	}
	x |= uint64(b8&0x7f) << 56
	b9 := b[9]
	if b9 < 0x80 {
		if b9 > 1 {
			return 0, -10 // overflow: bits past 64
		}
		return x | uint64(b9)<<63, 10
	}
	return 0, -11 // overflow: no terminator within ten bytes
}

// pack7 concatenates the low 7 bits of each of w's eight bytes, byte 0
// lowest, into a 56-bit value: three steps that each halve the number of
// lanes (8-bit lanes to 14-bit groups, then 28-bit, then one 56-bit).
func pack7(w uint64) uint64 {
	w &= groupBits
	w = w&0x007f007f007f007f | (w&0x7f007f007f007f00)>>1
	w = w&0x00003fff00003fff | (w&0x3fff00003fff0000)>>2
	return w&0x000000000fffffff | (w&0x0fffffff00000000)>>4
}

// putUvarint writes x at the head of b as an unsigned varint, exactly
// the bytes binary.PutUvarint writes (its test oracle), and returns the
// encoding's length. It is uvarint's inverse: the low 56 bits are
// spread into eight 7-bit groups with shifts and masks and stored as
// one word, so b must have room for ten bytes — the word store writes
// past a shorter encoding's end, and the caller's next write covers it.
func putUvarint(b []byte, x uint64) int {
	_ = b[binary.MaxVarintLen64-1]
	if x < 1<<56 {
		n := (bits.Len64(x|1) + 6) / 7
		binary.LittleEndian.PutUint64(b, spread7(x)|contBits>>(72-8*n))
		return n
	}
	binary.LittleEndian.PutUint64(b, spread7(x&(1<<56-1))|contBits)
	x >>= 56
	if x < 0x80 {
		b[8] = byte(x)
		return 9
	}
	b[8] = byte(x) | 0x80
	b[9] = byte(x >> 7)
	return 10
}

// spread7 is pack7's inverse: it places each 7-bit group of a 56-bit
// value in the low bits of its own byte, in three steps that each double
// the number of lanes.
func spread7(x uint64) uint64 {
	x = x&0x000000000fffffff | (x&0x00fffffff0000000)<<4
	x = x&0x00003fff00003fff | (x&0x0fffc0000fffc000)<<2
	return x&0x007f007f007f007f | (x&0x3f803f803f803f80)<<1
}
