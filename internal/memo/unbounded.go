package memo

import "math/bits"

// unbounded holds the infinite table's entries: open addressing with
// linear probing over a power-of-two slot array, kept at most three
// quarters full. A control byte per slot is zero for an empty slot and
// otherwise carries seven bits of the tag's hash, so a walk compares a
// full tag only where its control byte matches, and stops at the first
// empty slot. A slot is 24 bytes plus its control byte (and four bytes of
// exponent displacement in mantissa-only mode), against the 33 bytes a
// slot of a Go map from tag to stored result costs.
//
// For commutative classes the hash ignores operand order, so both orders
// of a pair share one probe sequence and a single walk finds either.
type unbounded struct {
	ctrl  []uint8
	slots []slot
	aux   []int32 // mantissa-only mode only: result exponent displacement
	n     int     // occupied slots
	sym   bool    // hash (a, b) and (b, a) alike
}

type slot struct{ a, b, val uint64 }

const unboundedMinSlots = 16

func newUnbounded(sym, mant bool) *unbounded {
	u := &unbounded{sym: sym}
	u.alloc(unboundedMinSlots, mant)
	return u
}

func (u *unbounded) alloc(n int, mant bool) {
	u.ctrl = make([]uint8, n)
	u.slots = make([]slot, n)
	u.aux = nil
	if mant {
		u.aux = make([]int32, n)
	}
}

// hash folds a 128-bit tag into 64 well-mixed bits. Floating-point
// operands often end in long runs of zero bits, so a hash that multiplies
// and keeps the low half would leave the slot index (the low bits) nearly
// constant; the full 128-bit product's halves are XORed instead, which
// carries the high operand bits down.
func (u *unbounded) hash(a, b uint64) uint64 {
	if u.sym && a > b {
		a, b = b, a
	}
	hi, lo := bits.Mul64(a^0x9e3779b97f4a7c15, b^0xc2b2ae3d27d4eb4f)
	return hi ^ lo
}

// ctrlOf is the control byte of an occupied slot whose tag hashes to h.
func ctrlOf(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// walk follows the probe sequence of tag (a, b). It returns the slot
// holding the tag, or else the empty slot that ends the sequence, which
// is where the tag is inserted. When the hash is symmetric it also
// returns the first slot holding the swapped order (b, a), or -1.
func (u *unbounded) walk(a, b uint64) (at int, found bool, swapped int) {
	h := u.hash(a, b)
	c := ctrlOf(h)
	mask := len(u.ctrl) - 1
	swapped = -1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		switch u.ctrl[i] {
		case 0:
			return i, false, swapped
		case c:
			s := &u.slots[i]
			if s.a == a && s.b == b {
				return i, true, swapped
			}
			if u.sym && swapped < 0 && s.a == b && s.b == a {
				swapped = i
			}
		}
	}
}

// auxAt returns slot i's exponent displacement (zero in full-value mode).
func (u *unbounded) auxAt(i int) int32 {
	if u.aux == nil {
		return 0
	}
	return u.aux[i]
}

// put stores an entry at slot i, which walk returned for tag (a, b),
// and doubles the table when it passes three quarters full.
func (u *unbounded) put(i int, a, b, val uint64, aux int32) {
	if u.ctrl[i] == 0 {
		u.ctrl[i] = ctrlOf(u.hash(a, b))
		u.n++
	}
	u.slots[i] = slot{a, b, val}
	if u.aux != nil {
		u.aux[i] = aux
	}
	if 4*u.n > 3*len(u.ctrl) {
		u.grow()
	}
}

// grow rehashes every entry into a table twice the size. Tags are
// distinct, so each goes to the first empty slot of its sequence.
func (u *unbounded) grow() {
	old := *u
	u.alloc(2*len(old.ctrl), old.aux != nil)
	mask := len(u.ctrl) - 1
	for i, c := range old.ctrl {
		if c == 0 {
			continue
		}
		s := old.slots[i]
		j := int(u.hash(s.a, s.b)) & mask
		for u.ctrl[j] != 0 {
			j = (j + 1) & mask
		}
		u.ctrl[j], u.slots[j] = c, s
		if u.aux != nil {
			u.aux[j] = old.aux[i]
		}
	}
}
