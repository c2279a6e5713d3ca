// Package formula provides hash-consed boolean formulas in a flat arena
// and a Tseitin transformation that writes CNF as a clause stream for
// sat.Solver.Load. It is the constraint-building layer used by CPR's
// MaxSMT encoding (Figure 5 of the paper) and by the bitvector
// arithmetic of package bv.
package formula

import (
	"fmt"
	"strings"

	"repro/internal/smt/sat"
)

// F is a formula handle into a Pool: bit 0 negates, bit 1 marks a
// variable, and the remaining bits index the pool's variables (by
// ordinal) or its composite nodes. Handles compare with ==: within one
// pool, structurally identical formulas have equal handles. The zero
// value means "no formula", so tables of handles start out empty.
type F uint32

const (
	negBit F = 1 << iota
	varBit
	indexShift = iota
)

// True and False are the boolean constants (composite node 1 of every
// pool, plain and negated).
const (
	True  F = 1 << indexShift
	False F = True | negBit
)

// Not negates f: a bit flip that allocates and interns nothing, which
// also folds double negation and the constants.
func Not(f F) F { return f ^ negBit }

// IsVar reports whether f is a variable or a negated one.
func (f F) IsVar() bool { return f&varBit != 0 }

// Var returns the ordinal of f's variable (f.IsVar() must hold).
func (f F) Var() int { return int(f >> indexShift) }

// Op is a composite node kind.
type Op uint8

// Node kinds. Variables and negations are handle bits, not nodes.
const (
	OpTrue Op = iota
	OpAnd
	OpOr
)

// Pool is the arena formulas live in: per composite node an op and a kid
// range, every kid in one shared backing array, and an open-addressed
// hash-cons table. Building a formula allocates only when one of those
// slices grows; Reset keeps them for the next use. A Pool is not safe
// for concurrent use: every encoding worker owns one.
type Pool struct {
	nvars uint32
	// Node i's kids are kids[offs[i]:offs[i+1]] (nodes and their kids are
	// appended together). Node 0 is unused, so that no handle is zero;
	// node 1 is the constant.
	ops  []Op
	offs []uint32
	kids []F
	// table holds node indices, 0 for an empty slot, at no more than half
	// load.
	table []uint32
	// buf is the stack And, Or and the Builder's top-level clausifier
	// flatten their operands onto.
	buf []F
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{table: make([]uint32, 256)}
	p.Reset()
	return p
}

// Reset empties the pool, keeping its storage. Every handle it issued is
// invalid afterwards.
func (p *Pool) Reset() {
	p.nvars = 0
	p.ops = append(p.ops[:0], OpTrue, OpTrue)
	p.offs = append(p.offs[:0], 0, 0, 0)
	p.kids = p.kids[:0]
	p.buf = p.buf[:0] // a panic mid-construction may have left operands pushed
	clear(p.table)
}

// Size returns the number of composite nodes interned so far.
func (p *Pool) Size() int { return len(p.ops) - 2 }

// Fresh returns a new variable, distinct from every other. Variables
// have no node and no name: a variable is its ordinal.
func (p *Pool) Fresh() F {
	p.nvars++
	return F(p.nvars-1)<<indexShift | varBit
}

// node returns the composite node index of f and its op, or ok=false
// when f is negated, a variable or a constant.
func (p *Pool) node(f F) (i uint32, op Op, ok bool) {
	if f&(negBit|varBit) != 0 {
		return 0, 0, false
	}
	i = uint32(f >> indexShift)
	return i, p.ops[i], p.ops[i] != OpTrue
}

func (p *Pool) kidsOf(i uint32) []F { return p.kids[p.offs[i]:p.offs[i+1]] }

func hashNode(op Op, kids []F) uint32 {
	h := (uint32(2166136261) ^ uint32(op)) * 16777619
	for _, k := range kids {
		h = (h ^ uint32(k)) * 16777619
	}
	// The table index is h's low bits, which the multiply alone leaves
	// dependent on the operands' low (flag) bits only.
	h ^= h >> 15
	h *= 0x2c1b3c6d
	return h ^ h>>12
}

// intern returns the node for (op, kids), appending it on first sight.
func (p *Pool) intern(op Op, kids []F) F {
	mask := uint32(len(p.table) - 1)
	slot := hashNode(op, kids) & mask
probe:
	for ; p.table[slot] != 0; slot = (slot + 1) & mask {
		i := p.table[slot]
		have := p.kidsOf(i)
		if p.ops[i] != op || len(have) != len(kids) {
			continue
		}
		for j, k := range have {
			if k != kids[j] {
				continue probe
			}
		}
		return F(i) << indexShift
	}
	i := uint32(len(p.ops))
	p.ops = append(p.ops, op)
	p.kids = append(p.kids, kids...)
	p.offs = append(p.offs, uint32(len(p.kids)))
	p.table[slot] = i
	if 2*len(p.ops) > len(p.table) {
		p.rehash()
	}
	return F(i) << indexShift
}

// rehash doubles the table and reinserts every node.
func (p *Pool) rehash() {
	p.table = make([]uint32, 2*len(p.table))
	mask := uint32(len(p.table) - 1)
	for i := uint32(2); i < uint32(len(p.ops)); i++ {
		slot := hashNode(p.ops[i], p.kidsOf(i)) & mask
		for p.table[slot] != 0 {
			slot = (slot + 1) & mask
		}
		p.table[slot] = i
	}
}

// unit is the identity constant of an op-junction; its negation absorbs.
func unit(op Op) F {
	if op == OpOr {
		return False
	}
	return True
}

// flatten pushes the operands of an op-junction onto p.buf, dropping the
// op's identity constant and splicing in the kids of un-negated same-op
// operands, and returns them (the caller pops: p.buf = p.buf[:mark]). An
// absorbing constant among the operands gives absorbed=true instead.
// Only plain same-op operands are spliced — a negated junction keeps its
// own node and its own Tseitin variable — and that rule is part of the
// CNF contract: it decides which sub-formulas are shared.
func (p *Pool) flatten(op Op, fs []F) (kids []F, absorbed bool) {
	mark := len(p.buf)
	for _, f := range fs {
		switch i, fop, ok := p.node(f); {
		case f == unit(op):
		case f == Not(unit(op)):
			return nil, true
		case ok && fop == op:
			p.buf = append(p.buf, p.kidsOf(i)...)
		default:
			p.buf = append(p.buf, f)
		}
	}
	return p.buf[mark:], false
}

func (p *Pool) junction(op Op, fs []F) F {
	mark := len(p.buf)
	kids, absorbed := p.flatten(op, fs)
	var f F
	switch {
	case absorbed:
		f = Not(unit(op))
	case len(kids) == 0:
		f = unit(op)
	case len(kids) == 1:
		f = kids[0]
	default:
		f = p.intern(op, kids)
	}
	p.buf = p.buf[:mark]
	return f
}

// And conjoins fs, flattening nested conjunctions and folding constants.
func (p *Pool) And(fs ...F) F { return p.junction(OpAnd, fs) }

// Or disjoins fs, flattening nested disjunctions and folding constants.
func (p *Pool) Or(fs ...F) F { return p.junction(OpOr, fs) }

// Implies returns a → b.
func (p *Pool) Implies(a, b F) F { return p.Or(Not(a), b) }

// Iff returns a ↔ b.
func (p *Pool) Iff(a, b F) F { return p.And(p.Implies(a, b), p.Implies(b, a)) }

// Xor returns a ⊕ b.
func (p *Pool) Xor(a, b F) F { return p.Or(p.And(a, Not(b)), p.And(Not(a), b)) }

// String renders f for debugging.
func (p *Pool) String(f F) string {
	switch i, op, ok := p.node(f &^ negBit); {
	case f == True:
		return "true"
	case f == False:
		return "false"
	case f&negBit != 0:
		return "!" + p.String(Not(f))
	case !ok:
		return fmt.Sprintf("v%d", f.Var())
	default:
		parts := make([]string, 0, 4)
		for _, k := range p.kidsOf(i) {
			parts = append(parts, p.String(k))
		}
		return "(" + strings.Join(parts, [...]string{OpAnd: " & ", OpOr: " | "}[op]) + ")"
	}
}

// Builder turns formulas of one pool into CNF. It numbers solver
// variables itself and appends clauses to a stream (sat.AppendClause's
// layout) that a single sat.Solver.Load consumes, instead of calling the
// solver per variable and per clause.
//
// The stream is held in chunks that are never copied: a clause that does
// not fit in the last chunk starts the next one, so every chunk holds
// whole clauses. Chunks double from a small first one (a repair of a
// small network writes a few hundred literals) up to a fixed size, and
// Reset keeps them all for the next encoding.
//
// The numbering is part of the solve-cache and golden contract: a
// formula variable gets its solver variable at first use, and a
// composite gets its Tseitin variable after every kid has one (Lit's
// post-order walk); clauses appear in emission order.
//
// A constraint that owns a composite — one no other constraint can build
// — writes it with DefineAnd or DefineOr over literals it has numbered,
// in kid order: the variable and clauses Lit would give the node, without
// interning or flattening it. Lit writes its definitions through the same
// two definers.
type Builder struct {
	p     *Pool
	nVars int
	// chunks[:used] are the stream in order; chunks[used:] are spares an
	// earlier encoding filled. The last one is still being filled: open
	// is it, with the length it has reached (chunks[used-1] catches up
	// when the next chunk starts and when Stream is read).
	chunks [][]sat.Lit
	used   int
	open   []sat.Lit
	// varLits and nodeLits hold literal+1 per pool variable and per
	// composite node, 0 until first use.
	varLits  []sat.Lit
	nodeLits []sat.Lit
	// tmp is the stack clauses are assembled on.
	tmp []sat.Lit
}

// NewBuilder returns a builder for formulas of p.
func NewBuilder(p *Pool) *Builder { return &Builder{p: p} }

// Pool returns the pool whose formulas the builder encodes.
func (b *Builder) Pool() *Pool { return b.p }

// Reset empties the builder and its pool for the next encoding, keeping
// their storage.
func (b *Builder) Reset() {
	b.p.Reset()
	b.nVars = 0
	b.used, b.open = 0, nil // a spare is truncated when it is taken again
	b.varLits = b.varLits[:0]
	b.nodeLits = b.nodeLits[:0]
	b.tmp = b.tmp[:0]
}

// NumVars and Stream are the CNF built so far: sat.Solver.Load's
// arguments (the stream's chunks, in order). The chunks alias the
// builder's storage until Reset.
func (b *Builder) NumVars() int { return b.nVars }
func (b *Builder) Stream() [][]sat.Lit {
	if b.used > 0 {
		b.chunks[b.used-1] = b.open
	}
	return b.chunks[:b.used]
}

// VarTable is the variable table: per pool variable its solver literal
// plus one, or 0 if no constraint ever used it. It aliases the builder's
// storage until Reset, and may end before the last pool variable (the
// ones past its end are unused, as a 0 entry is).
func (b *Builder) VarTable() []sat.Lit { return b.varLits }

// slot returns the table entry for index i, extending the table with
// zeros (spare capacity may hold a previous encoding's entries).
func slot(table *[]sat.Lit, i int) *sat.Lit {
	if t := *table; i >= len(t) {
		if i < cap(t) {
			clear(t[len(t) : i+1])
			*table = t[:i+1]
		} else {
			*table = append(t, make([]sat.Lit, i+1-len(t))...)
		}
	}
	return &(*table)[i]
}

func (b *Builder) newVar() sat.Lit {
	b.nVars++
	return sat.MkLit(sat.Var(b.nVars-1), false)
}

// Stream chunk sizes, in literals: the first chunk holds 2^firstChunkLog,
// each next one twice its predecessor, up to 2^maxChunkLog (256 kB).
const (
	firstChunkLog = 8
	maxChunkLog   = 16
)

// room extends the stream by n literals, one whole clause, and returns
// them for the caller to fill.
func (b *Builder) room(n int) []sat.Lit {
	at := len(b.open)
	if at+n > cap(b.open) {
		b.nextChunk(n)
		at = 0
	}
	b.open = b.open[:at+n]
	return b.open[at:]
}

// nextChunk closes the open chunk and opens the next, with room for at
// least n literals: the next spare, when it is large enough, else a new
// one of the next size that replaces it.
func (b *Builder) nextChunk(n int) {
	if b.used > 0 {
		b.chunks[b.used-1] = b.open
	}
	if b.used == len(b.chunks) {
		b.chunks = append(b.chunks, nil)
	}
	if c := b.chunks[b.used]; cap(c) >= n {
		b.open = c[:0]
	} else {
		b.open = make([]sat.Lit, 0, max(n, 1<<min(firstChunkLog+b.used, maxChunkLog)))
		b.chunks[b.used] = b.open
	}
	b.used++
}

// Clause emits one clause over already-numbered literals, in
// sat.AppendClause's layout: its length, then its literals.
func (b *Builder) Clause(lits ...sat.Lit) {
	dst := b.room(1 + len(lits))
	dst[0] = sat.Lit(len(lits))
	copy(dst[1:], lits)
}

// Binary emits the clause (x ∨ y): Clause(x, y) without the copy, for the
// width most of an encoding's clauses have.
func (b *Builder) Binary(x, y sat.Lit) {
	dst := b.room(3)
	dst[0], dst[1], dst[2] = 2, x, y
}

// DefineAnd returns a new variable l defined as the conjunction of lits,
// which must already be numbered: the clauses (¬l ∨ k) for each k, then
// (l ∨ ¬k_1 ∨ … ∨ ¬k_n). It is the definition Lit writes for an And
// node, for a conjunction only its caller can build: nothing is interned,
// so numbering the operands first, in kid order, and defining here gives
// the variable and clauses Lit would have given the node.
func (b *Builder) DefineAnd(lits ...sat.Lit) sat.Lit {
	l := b.newVar()
	b.pairs(l.Not(), lits, 0, true)
	dst := b.room(2 + len(lits))
	dst[0], dst[1] = sat.Lit(len(lits)+1), l
	for j, k := range lits {
		dst[2+j] = k.Not()
	}
	return l
}

// DefineOr is DefineAnd for a disjunction: (¬k ∨ l) for each k, then
// (¬l ∨ k_1 ∨ … ∨ k_n).
func (b *Builder) DefineOr(lits ...sat.Lit) sat.Lit {
	l := b.newVar()
	b.pairs(l, lits, 1, false)
	dst := b.room(2 + len(lits))
	dst[0], dst[1] = sat.Lit(len(lits)+1), l.Not()
	copy(dst[2:], lits)
	return l
}

// AtMostOne asserts that at most one of lits holds, pairwise: one binary
// clause per pair, in order. Its clauses grow with the square of the set
// (PC3 calls it over every vertex's out-edges, up to 50 of them).
func (b *Builder) AtMostOne(lits ...sat.Lit) {
	for i, x := range lits {
		b.pairs(x.Not(), lits[i+1:], 1, true)
	}
}

// pairs writes one binary clause per y of ys, (x ∨ y^flip), or (y^flip ∨
// x) when xFirst is false: as many as the open chunk holds at a time,
// written in place, so the chunks break exactly where one Binary call
// per clause would break them.
func (b *Builder) pairs(x sat.Lit, ys []sat.Lit, flip sat.Lit, xFirst bool) {
	for len(ys) > 0 {
		k := min(len(ys), (cap(b.open)-len(b.open))/3)
		if k == 0 {
			b.nextChunk(3)
			k = min(len(ys), cap(b.open)/3)
		}
		at := len(b.open)
		b.open = b.open[:at+3*k]
		dst := b.open[at:]
		for j, y := range ys[:k] {
			c := dst[3*j : 3*j+3]
			if xFirst {
				c[0], c[1], c[2] = 2, x, y^flip
			} else {
				c[0], c[1], c[2] = 2, y^flip, x
			}
		}
		ys = ys[k:]
	}
}

// Lit returns a solver literal equivalent to f, introducing Tseitin
// definitions for composite nodes (one per node: hash-consing makes
// structurally identical composites share it).
func (b *Builder) Lit(f F) sat.Lit {
	neg := sat.Lit(f & negBit)
	if f.IsVar() {
		l := slot(&b.varLits, f.Var())
		if *l == 0 {
			*l = b.newVar() + 1
		}
		return (*l - 1) ^ neg
	}
	i := uint32(f >> indexShift)
	if l := *slot(&b.nodeLits, int(i)); l != 0 {
		return (l - 1) ^ neg
	}
	mark := len(b.tmp)
	for _, k := range b.p.kidsOf(i) {
		kl := b.Lit(k)
		b.tmp = append(b.tmp, kl)
	}
	var l sat.Lit
	switch kids := b.tmp[mark:]; b.p.ops[i] {
	case OpTrue:
		l = b.newVar()
		b.Clause(l)
	case OpAnd:
		l = b.DefineAnd(kids...)
	case OpOr:
		l = b.DefineOr(kids...)
	}
	b.tmp = b.tmp[:mark]
	b.nodeLits[i] = l + 1
	return l ^ neg
}

// Assert adds f as a hard constraint. Top-level conjunctions become
// separate assertions and top-level disjunctions become a single clause,
// avoiding auxiliary variables where possible.
func (b *Builder) Assert(f F) {
	switch i, op, ok := b.p.node(f); {
	case f == True:
	case f == False:
		b.Clause() // empty clause: unsatisfiable
	case ok && op == OpAnd:
		for _, k := range b.p.kidsOf(i) {
			b.Assert(k)
		}
	case ok && op == OpOr:
		b.anyOf(b.p.kidsOf(i))
	default:
		b.Clause(b.Lit(f))
	}
}

// anyOf emits the clause over the literals of kids.
func (b *Builder) anyOf(kids []F) {
	mark := len(b.tmp)
	for _, k := range kids {
		kl := b.Lit(k)
		b.tmp = append(b.tmp, kl)
	}
	b.Clause(b.tmp[mark:]...)
	b.tmp = b.tmp[:mark]
}

// AssertOr is Assert(p.Or(fs...)) without interning the disjunction: the
// operands are flattened and folded exactly as Or would, then clausified
// in place. AssertImplies and AssertIff do the same for a → b and a ↔ b
// (two implications). The CNF is the same either way — a top-level
// disjunction never gets a Tseitin variable — so these exist only to
// keep nodes that nothing else refers to out of the arena.
func (b *Builder) AssertOr(fs ...F) {
	p := b.p
	mark := len(p.buf)
	_, absorbed := p.flatten(OpOr, fs)
	b.assertFlat(mark, absorbed)
}

// assertFlat asserts the disjunction of the operands flatten left on the
// pool's stack from mark on, and pops them.
func (b *Builder) assertFlat(mark int, absorbed bool) {
	p := b.p
	switch kids := p.buf[mark:]; {
	case absorbed:
	case len(kids) == 0:
		b.Clause()
	case len(kids) == 1:
		b.Assert(kids[0])
	default:
		b.anyOf(kids)
	}
	p.buf = p.buf[:mark]
}

// AssertImplies asserts a → (c_1 ∨ … ∨ c_n), which is AssertOr(Not(a),
// c_1, …, c_n): like Assert(p.Implies(a, p.Or(cs...))) when the
// disjunction is only ever spliced into this clause, but without
// interning it.
func (b *Builder) AssertImplies(a F, cs ...F) {
	p := b.p
	mark := len(p.buf)
	_, absorbed := p.flatten(OpOr, []F{Not(a)})
	if !absorbed {
		_, absorbed = p.flatten(OpOr, cs)
	}
	b.assertFlat(mark, absorbed)
}

// AssertIff asserts a ↔ b.
func (b *Builder) AssertIff(a, c F) {
	b.AssertImplies(a, c)
	b.AssertImplies(c, a)
}
