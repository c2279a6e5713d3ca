// Package bv implements fixed-width unsigned integers over boolean
// formulas (bit-blasting): constants, fresh vectors, ripple-carry
// addition, and comparisons. It provides the integer theory CPR's PC4
// constraints need (edge costs and shortest-path distances, Figure 5
// constraints 13-17) on top of the SAT substrate.
package bv

import (
	"fmt"

	"repro/internal/smt/formula"
)

// Vec is an unsigned integer as bits, least-significant first.
type Vec []formula.F

// Const returns the width-bit constant v. Panics if v does not fit.
func Const(v uint64, width int) Vec {
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bv: constant %d does not fit in %d bits", v, width))
	}
	out := make(Vec, width)
	for i := 0; i < width; i++ {
		if v&(1<<uint(i)) != 0 {
			out[i] = formula.True
		} else {
			out[i] = formula.False
		}
	}
	return out
}

// Fresh returns a width-bit vector of fresh pool variables.
func Fresh(p *formula.Pool, width int) Vec {
	out := make(Vec, width)
	for i := range out {
		out[i] = p.Fresh()
	}
	return out
}

// bit returns bit i, or False beyond the width.
func (v Vec) bit(i int) formula.F {
	if i < len(v) {
		return v[i]
	}
	return formula.False
}

// Add returns a+b with width max(len(a),len(b))+1 (no overflow).
func Add(p *formula.Pool, a, b Vec) Vec {
	width := len(a)
	if len(b) > width {
		width = len(b)
	}
	out := make(Vec, width+1)
	carry := formula.False
	for i := 0; i < width; i++ {
		ai, bi := a.bit(i), b.bit(i)
		out[i] = p.Xor(p.Xor(ai, bi), carry)
		carry = p.Or(
			p.And(ai, bi),
			p.And(carry, p.Or(ai, bi)),
		)
	}
	out[width] = carry
	return out
}

// Equal returns the formula a == b (widths may differ; missing high bits
// are zero).
func Equal(p *formula.Pool, a, b Vec) formula.F {
	width := len(a)
	if len(b) > width {
		width = len(b)
	}
	parts := make([]formula.F, width)
	for i := 0; i < width; i++ {
		parts[i] = p.Iff(a.bit(i), b.bit(i))
	}
	return p.And(parts...)
}

// Less returns the formula a < b (unsigned).
func Less(p *formula.Pool, a, b Vec) formula.F {
	width := len(a)
	if len(b) > width {
		width = len(b)
	}
	// From MSB down: lt = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ lt_rest).
	lt := formula.False
	for i := 0; i < width; i++ {
		ai, bi := a.bit(i), b.bit(i)
		lt = p.Or(
			p.And(formula.Not(ai), bi),
			p.And(p.Iff(ai, bi), lt),
		)
	}
	return lt
}

// LessEq returns the formula a <= b (unsigned).
func LessEq(p *formula.Pool, a, b Vec) formula.F { return formula.Not(Less(p, b, a)) }

// NonZero returns the formula v != 0.
func NonZero(p *formula.Pool, v Vec) formula.F { return p.Or(v...) }

// Value reads the vector's integer value, bit by bit, from a model.
func Value(v Vec, model func(formula.F) bool) uint64 {
	var out uint64
	for i, bit := range v {
		if model(bit) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// AssertEqualConst asserts v == c using unit constraints (cheaper than
// Assert(Equal(v, Const(c, w)))).
func AssertEqualConst(b *formula.Builder, v Vec, c uint64) {
	for i, bit := range v {
		if c&(1<<uint(i)) != 0 {
			b.Assert(bit)
		} else {
			b.Assert(formula.Not(bit))
		}
	}
	if len(v) < 64 && c>>uint(len(v)) != 0 {
		b.Assert(formula.False) // constant does not fit: unsatisfiable
	}
}
