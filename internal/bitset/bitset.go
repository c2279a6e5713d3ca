// Package bitset is the dense boolean row the HARC state, the ETG
// waypoint override and the flow scratch are built from: a []uint64
// indexed by small integer ids (slot, process, link).
package bitset

import "math/bits"

// Set is a fixed-capacity bit row. The zero value is an empty row of
// capacity 0; New sizes one. Reads beyond the capacity report false, so
// a nil row reads as all-absent.
type Set []uint64

// New returns an all-zero row able to hold ids 0..n-1.
func New(n int) Set { return make(Set, (n+63)>>6) }

// Has reports whether bit i is set. Out-of-range ids (including
// negative ones) are absent.
func (s Set) Has(i int) bool {
	w := i >> 6
	return w >= 0 && w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Put sets bit i to v.
func (s Set) Put(i int, v bool) {
	if v {
		s[i>>6] |= 1 << (uint(i) & 63)
	} else {
		s[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// Clone returns a copy that shares no storage with s.
func (s Set) Clone() Set { return append(Set(nil), s...) }

// Equal reports whether the two rows hold the same bits.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i, w := range s {
		if w != o[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether some bit is set in both rows.
func (s Set) Intersects(o Set) bool {
	if len(o) < len(s) {
		s, o = o, s
	}
	for i, w := range s {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// Or sets every bit of o in s (rows of equal capacity).
func (s Set) Or(o Set) {
	for i, w := range o {
		s[i] |= w
	}
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn for every set bit in ascending order.
func (s Set) Each(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// EachDiff calls fn, in ascending order, for every bit that differs
// between a and b (rows of equal capacity): the XOR walk that lets a
// consumer visit only what a repair changed.
func EachDiff(a, b Set, fn func(i int)) {
	for wi, w := range a {
		for x := w ^ b[wi]; x != 0; x &= x - 1 {
			fn(wi<<6 + bits.TrailingZeros64(x))
		}
	}
}
