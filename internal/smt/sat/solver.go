// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver: arena-backed clause storage with specialized binary implication
// lists, two-watched-literal propagation with blocking literals, 1UIP
// conflict analysis with recursive clause minimization, VSIDS branching
// with phase saving, Luby restarts, two-tier LBD-based learned-clause
// management, incremental solving under assumptions, and unsat-core
// extraction.
//
// It is the satisfiability substrate beneath CPR's MaxSMT formulation
// (the paper uses Z3; see DESIGN.md for the substitution argument).
package sat

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/faultinject"
)

// Var is a boolean variable index (0-based).
type Var int32

// Lit is a literal: variable 2*v for the positive literal, 2*v+1 for the
// negation.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal as ±(var+1), DIMACS style.
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	Unknown Status = iota
	Sat
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	}
	return "unknown"
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// coreLBD is the Glucose "core tier" threshold: learned clauses whose
// LBD is at most this are kept forever, never offered to reduceDB.
const coreLBD = 3

// watcher pairs a clause reference with a blocker literal for fast
// propagation: if the blocker is already true the clause is satisfied
// and the arena is never touched.
type watcher struct {
	cref    uint32
	blocker Lit
}

// Defaults of the learnt-clause and arena limits (SetMaxLearned,
// SetGCWasteFraction), which New sets and Reset restores.
const (
	defaultMaxLearned = 4000
	defaultGCFrac     = 0.25
)

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	Stats // cumulative search counters, promoted (s.Conflicts etc.)

	// Clause storage (see arena.go for the layout).
	arena   []uint32
	clauses []uint32 // problem clause refs (≥3 literals)
	learnts []uint32 // live learned clause refs (≥3 literals)
	wasted  int      // arena words held by deleted clauses
	gcFrac  float64  // wasted/len(arena) fraction that triggers gcArena

	// bins lists under p, for every binary clause {p.Not(), q}, the
	// literal q that becomes forced when p is assigned true. Binary
	// propagation walks these flat lists and never touches the arena.
	// watches lists under p the long clauses watching p.Not(). Both are
	// windows into shared pointer-free backings (see arena.go).
	bins    lists[Lit]
	watches lists[watcher]

	// vals is indexed by literal: vals[l] is l's value and vals[l^1] its
	// complement's, so reading a literal's value is one load.
	vals     []lbool
	phase    []bool // saved phases
	level    []int32
	reason   []uint32 // arena cref, tagged binary ref, or refUndef
	trail    []Lit
	trailLim []int32 // decision-level boundaries in trail
	qhead    int

	// binConfl holds the two (false) literals of a conflicting binary
	// clause when propagate returns refBinConfl.
	binConfl [2]Lit

	activity []float64
	varInc   float64
	order    *varHeap

	seen []bool

	// lbdStamp[level] == lbdGen marks levels already counted by the
	// current LBD computation (one array pass, no clearing; see
	// nextStamp for the wrap).
	lbdStamp []uint32
	lbdGen   uint32

	// litStamp[lit] == addGen marks literals already seen by the current
	// AddClause call (replaces a per-call map).
	litStamp []uint32
	addGen   uint32

	// Reused scratch buffers (valid only within one call).
	addBuf     []Lit
	learnedBuf []Lit
	clearBuf   []Lit
	reduceBuf  []uint32
	varBuf     []Var

	ok          bool
	model       []lbool // snapshot of the last satisfying assignment
	numLearned  int     // live arena learnts (binaries are permanent)
	maxLearned  int
	clauseInc   float64
	assumptions []Lit
	core        []Lit
	coreBuf     []Lit // backs core between Solve calls

	// Budget limits Solve to roughly this many conflicts (0 = unlimited);
	// exceeded budgets return Unknown.
	Budget int64

	// stop is the asynchronous interruption flag (see Interrupt). It is
	// the only solver field safe to touch from another goroutine.
	stop atomic.Bool
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		ok:         true,
		varInc:     1.0,
		clauseInc:  1.0,
		maxLearned: defaultMaxLearned,
		gcFrac:     defaultGCFrac,
		lbdStamp:   make([]uint32, 1), // level 0
		order:      newVarHeap(),
	}
}

// Reset returns the solver to New's state — no variables, clauses or
// learnt clauses, zero counters, default limits, interrupt cleared — but
// keeps every array's capacity, so a worker that solves one formula after
// another allocates its solver's memory once. Capacity is storage, not
// state: a reset solver given the same calls as a new one makes the same
// decisions and finds the same models. Reset must not race with
// Interrupt; a caller that interrupts from a context makes sure the
// interrupt has landed or never will before it resets (maxsat.SolveWeightedCtx
// waits for its callback).
func (s *Solver) Reset() {
	s.Stats = Stats{}
	s.arena, s.clauses, s.learnts = s.arena[:0], s.clauses[:0], s.learnts[:0]
	s.wasted, s.gcFrac = 0, defaultGCFrac
	s.bins.reset()
	s.watches.reset()
	// setNumVars relies on spare capacity being zero: clear what was used
	// before truncating.
	s.vals = wipe(s.vals)
	s.phase = wipe(s.phase)
	s.level = wipe(s.level)
	s.reason = wipe(s.reason)
	s.activity = wipe(s.activity)
	s.seen = wipe(s.seen)
	s.litStamp = wipe(s.litStamp)
	s.lbdStamp = wipe(s.lbdStamp)[:1] // level 0
	s.lbdGen, s.addGen = 0, 0
	s.trail, s.trailLim, s.qhead = s.trail[:0], s.trailLim[:0], 0
	s.binConfl = [2]Lit{}
	s.varInc = 1.0
	s.order.reset()
	s.addBuf, s.learnedBuf, s.clearBuf = s.addBuf[:0], s.learnedBuf[:0], s.clearBuf[:0]
	s.reduceBuf, s.varBuf = s.reduceBuf[:0], s.varBuf[:0]
	s.ok = true
	s.model = s.model[:0]
	s.numLearned, s.maxLearned, s.clauseInc = 0, defaultMaxLearned, 1.0
	s.assumptions, s.core, s.coreBuf = nil, nil, s.coreBuf[:0]
	s.Budget = 0
	s.stop.Store(false)
}

// wipe zeroes xs and returns it emptied, capacity kept.
func wipe[T any](xs []T) []T {
	clear(xs)
	return xs[:0]
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.level) }

// SetPhase sets the variable's initial branching polarity (overwritten
// later by phase saving). Seeding phases with a known near-solution
// steers the first model toward it — CPR seeds the original network
// state so the initial MaxSAT upper bound is small.
func (s *Solver) SetPhase(v Var, val bool) { s.phase[v] = val }

// SeedPhasesFromModel copies the last satisfying assignment into the
// saved phases, so the next Solve call starts its search from that
// model. MaxSAT bound-tightening loops use this to warm-start each
// iteration from the previous optimum instead of restarting cold.
func (s *Solver) SeedPhasesFromModel() {
	n := len(s.model)
	if n > len(s.phase) {
		n = len(s.phase)
	}
	for v := 0; v < n; v++ {
		s.phase[v] = s.model[v] == lTrue
	}
}

// SetMaxLearned overrides the live learned-clause count that triggers
// the next reduceDB pass (default 4000). Exposed so stress tests can
// force reductions and arena GCs on small instances.
func (s *Solver) SetMaxLearned(n int) { s.maxLearned = n }

// SetGCWasteFraction overrides the deleted-storage fraction of the
// arena that triggers compaction (default 0.25).
func (s *Solver) SetGCWasteFraction(f float64) { s.gcFrac = f }

// grow reallocates xs with capacity c (used by NewVar to resize every
// per-variable array in one step instead of letting each append grow
// incrementally — encoders allocate tens of thousands of variables one
// at a time).
func grow[T any](xs []T, c int) []T {
	out := make([]T, len(xs), c)
	copy(out, xs)
	return out
}

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	n := s.NumVars()
	if n == cap(s.level) {
		s.reserve(2*n + 64)
	}
	s.setNumVars(n + 1)
	return Var(n)
}

// Reserved, when set, is called every time a solver allocates its
// per-variable arrays, with the capacity it gives them. Only tests set it,
// to count how often a workload's solvers allocate them.
var Reserved func(c int)

// reserve gives every per-variable array capacity for c variables.
func (s *Solver) reserve(c int) {
	if c <= cap(s.level) {
		return
	}
	if Reserved != nil {
		Reserved(c)
	}
	s.vals = grow(s.vals, 2*c)
	s.phase = grow(s.phase, c)
	s.level = grow(s.level, c)
	s.reason = grow(s.reason, c)
	s.activity = grow(s.activity, c)
	s.seen = grow(s.seen, c)
	s.watches.win = grow(s.watches.win, 2*c)
	s.bins.win = grow(s.bins.win, 2*c)
	s.litStamp = grow(s.litStamp, 2*c)
	s.lbdStamp = grow(s.lbdStamp, c+1)
	s.order.reserve(c)
}

// setNumVars extends the solver to n variables (within reserved
// capacity): unassigned, phase false, no reason, zero activity, queued
// for branching in index order. The added elements start out zero —
// every per-variable array only ever grows, and Reset clears what it
// truncates, so spare capacity is never left written.
func (s *Solver) setNumVars(n int) {
	old := s.NumVars()
	s.vals = s.vals[:2*n]
	s.phase = s.phase[:n]
	s.level = s.level[:n]
	s.reason = s.reason[:n]
	s.activity = s.activity[:n]
	s.seen = s.seen[:n]
	s.watches.win = s.watches.win[:2*n]
	s.bins.win = s.bins.win[:2*n]
	s.litStamp = s.litStamp[:2*n]
	if len(s.lbdStamp) < n+1 { // one possible decision level per variable
		s.lbdStamp = s.lbdStamp[:n+1]
	}
	for v := old; v < n; v++ {
		s.reason[v] = refUndef
	}
	s.order.appendZero(Var(old), Var(n))
}

// AppendClause appends one clause to a Load stream: its length, then its
// literals.
func AppendClause(stream []Lit, lits ...Lit) []Lit {
	return append(append(stream, Lit(len(lits))), lits...)
}

// Load brings the solver to nVars variables and adds the clauses of
// stream (AppendClause's layout, in chunks read in order, each holding
// whole clauses) in order, leaving exactly the state the same NewVar and
// AddClause calls would: the same entries in the same order in every
// implication and watch list, the same arena, trail and ok, so every
// later decision, propagation and model is the same too. What it saves is
// growth and the general path. Every per-variable array is allocated at
// most once (see fits for a reset solver's); on a solver that holds no
// clauses yet, each list's window is laid out at the size the stream will
// fill; and a clause AddClause would store exactly as given — a binary
// over two distinct unassigned variables, a longer one with no assigned,
// repeated or complementary literal — is written where it belongs without
// being copied and normalised first. Binaries and ternaries, nearly all of
// an encoder's clauses, are recognised by comparing their variables; a
// wider clause takes a stamp pass (plain). Everything else (units, which
// propagate at that very point; clauses a level-0 fact satisfies or
// shortens; duplicates, tautologies, the empty clause) goes through
// AddClause. Returns false if the formula became trivially unsatisfiable.
// Encoders build the whole CNF first and call Load once on a new or reset
// solver; variables and clauses added afterwards (MaxSAT totalizers) use
// NewVar and AddClause.
func (s *Solver) Load(nVars int, stream ...[]Lit) bool {
	if nVars > s.NumVars() {
		// An eighth of headroom: MaxSAT engines add selector and totalizer
		// variables after the load, and the first NewVar past capacity
		// reallocates every per-variable array.
		if !fits(nVars, cap(s.level)) {
			s.reserve(nVars + nVars/8 + 64)
		}
		s.setNumVars(nVars)
	}
	if len(s.bins.back) == 0 && len(s.watches.back) == 0 {
		s.sizeFor(stream)
	}
	for _, chunk := range stream {
		for i := 0; i < len(chunk) && s.ok; {
			n := int(chunk[i])
			// The two widths nearly every clause has, decided by comparing
			// variables: no stamp pass and no slice of the clause. A binary
			// or ternary that fails the test goes to AddClause.
			switch n {
			case 2:
				a, b := chunk[i+1], chunk[i+2]
				if s.unassigned(a) && s.unassigned(b) && a.Var() != b.Var() {
					s.addBinary(a, b)
					i += 3
					continue
				}
			case 3:
				a, b, c := chunk[i+1], chunk[i+2], chunk[i+3]
				if s.unassigned(a) && s.unassigned(b) && s.unassigned(c) &&
					a.Var() != b.Var() && a.Var() != c.Var() && b.Var() != c.Var() {
					s.newClause(chunk[i+1:i+4], false, 0)
					i += 4
					continue
				}
			}
			c := chunk[i+1 : i+1+n]
			i += 1 + n
			if n > 3 && s.plain(c) {
				s.newClause(c, false, 0)
			} else {
				s.AddClause(c...)
			}
		}
	}
	return s.ok
}

// fits reports whether an array of capacity have holds a load of need
// entries with a sixteenth to spare. It is the capacity rule of a reset
// solver: its arrays keep their capacity, and a load regrows one only
// when it does not fit — a worker's sub-problems differ by a few
// percent, and the spare takes what is added after the load (MaxSAT's
// variables, learnt and totalizer clauses) — and then with slack, so the
// next sub-problem fits. A new solver fits nothing and is sized for its
// first load as it always was, exactly where it always was exact: a
// worker's first load is often its only one.
func fits(need, have int) bool { return need+need/16 <= have }

// fitted returns xs with capacity for need entries: xs itself when need
// fits, else a copy, with exactly need in a new solver (nothing
// allocated yet) and with an eighth of slack in a reset one.
func fitted[T any](xs []T, need int) []T {
	switch {
	case fits(need, cap(xs)):
		return xs
	case cap(xs) == 0:
		return grow(xs, need)
	}
	return grow(xs, need+need/8)
}

// sizeFor sizes the clause arena and the (entirely empty) implication
// and watch lists for the clauses of stream. It counts, per literal, the
// binary clauses and the watched positions (a long clause watches its
// first two literals) the stream will attach, straight into the windows'
// cap fields — before level-0 simplification, which may drop or shorten
// a clause, so a window can end up with slack or be outgrown by a few
// entries, which then move like any other full list.
func (s *Solver) sizeFor(stream [][]Lit) {
	var long, words int
	for _, chunk := range stream {
		for i := 0; i < len(chunk); {
			n := int(chunk[i])
			if n >= 2 {
				a, b := chunk[i+1], chunk[i+2]
				s.checkLit(a)
				s.checkLit(b)
				if n == 2 {
					s.bins.win[a.Not()].cap++
					s.bins.win[b.Not()].cap++
				} else {
					s.watches.win[a.Not()].cap++
					s.watches.win[b.Not()].cap++
					long++
					words += 1 + n
				}
			}
			i += 1 + n
		}
	}
	s.bins.layout()
	s.watches.layout()
	s.arena = fitted(s.arena, len(s.arena)+words)
	s.clauses = fitted(s.clauses, len(s.clauses)+long)
	s.trail = fitted(s.trail, s.NumVars())
}

// checkLit panics unless l is a literal of an allocated variable.
func (s *Solver) checkLit(l Lit) {
	if uint(l) >= uint(len(s.vals)) {
		panic("sat: literal references unallocated variable")
	}
}

// unassigned reports whether l's variable has no value yet.
func (s *Solver) unassigned(l Lit) bool {
	s.checkLit(l)
	return s.vals[l] == lUndef
}

// plain reports whether AddClause would store c exactly as given: every
// literal unassigned, none repeated, none complemented.
func (s *Solver) plain(c []Lit) bool {
	g := nextStamp(s.litStamp, &s.addGen)
	for _, l := range c {
		if !s.unassigned(l) || s.litStamp[l] == g || s.litStamp[l.Not()] == g {
			return false
		}
		s.litStamp[l] = g
	}
	return true
}

// value returns the literal's current assignment.
func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// nextStamp advances a stamp generation and returns it. Before the
// counter wraps it clears the stamps' full capacity, not just their
// length, and restarts at 1, so no stamp an earlier generation left
// anywhere in the array can equal a new one.
func nextStamp(stamps []uint32, gen *uint32) uint32 {
	if *gen == math.MaxUint32 {
		clear(stamps[:cap(stamps)])
		*gen = 0
	}
	*gen++
	return *gen
}

// Value returns the variable's value in the model after a Sat result.
func (s *Solver) Value(v Var) bool { return s.model[v] == lTrue }

// ValueLit returns the literal's truth value in the model.
func (s *Solver) ValueLit(l Lit) bool {
	if l.Neg() {
		return s.model[l.Var()] == lFalse
	}
	return s.model[l.Var()] == lTrue
}

// AddClause adds a clause. Returns false if the formula became trivially
// unsatisfiable. Clauses may only be added at decision level 0 (i.e.
// between Solve calls).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	// Normalize: drop duplicate and false literals; detect tautologies and
	// satisfied clauses. The literal stamp array replaces a per-call map.
	g := nextStamp(s.litStamp, &s.addGen)
	if cap(s.addBuf) < len(lits) {
		s.addBuf = make([]Lit, 0, 2*len(lits))
	}
	out := s.addBuf[:0] // never grows, so the early returns lose nothing
	for _, l := range lits {
		s.checkLit(l)
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			continue
		}
		if s.litStamp[l] == g {
			continue
		}
		if s.litStamp[l.Not()] == g {
			return true // tautology
		}
		s.litStamp[l] = g
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		if !s.enqueue(out[0], refUndef) {
			s.ok = false
			return false
		}
		if s.propagate() != refUndef {
			s.ok = false
			return false
		}
		return true
	case 2:
		s.addBinary(out[0], out[1])
		return true
	}
	s.newClause(out, false, 0)
	return true
}

// addBinary records the binary clause {a, b} in the implication lists:
// when either literal's negation becomes true, the other is forced.
func (s *Solver) addBinary(a, b Lit) {
	if !s.bins.tryPush(a.Not(), b) {
		s.bins.push(a.Not(), b)
	}
	if !s.bins.tryPush(b.Not(), a) {
		s.bins.push(b.Not(), a)
	}
}

// enqueue assigns literal l with the given reason reference unless it
// already has a value; it reports whether l is true afterwards.
func (s *Solver) enqueue(l Lit, from uint32) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	s.assign(l, from)
	return true
}

// assign makes the unassigned literal l true with the given reason
// reference.
func (s *Solver) assign(l Lit, from uint32) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := l.Var()
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns a conflicting clause
// reference (refBinConfl for a binary conflict, with the literals in
// binConfl) or refUndef.
func (s *Solver) propagate() uint32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++

		// Binary implications first: each q listed under p is forced by
		// the clause {p.Not(), q}. This is a flat list walk — no watcher
		// bookkeeping, no arena access, and nothing in it pushes.
		for _, q := range s.bins.list(p) {
			switch s.value(q) {
			case lFalse:
				s.binConfl[0] = p.Not()
				s.binConfl[1] = q
				s.qhead = len(s.trail)
				return refBinConfl
			case lUndef:
				s.BinaryProps++
				s.assign(q, mkBinRef(p.Not()))
			}
		}

		// Filter p's watch window in place, by index: entries [off, j) are
		// kept, [i, end) still to visit. Moving a watch pushes to another
		// list (never p's own — arena.go, rule 2); a push that has to move
		// that list may reallocate the backing, so it is read again.
		pw := &s.watches.win[p]
		back := s.watches.back
		i, j, end := pw.off, pw.off, pw.off+pw.n
		conflict := refUndef
		for i < end {
			w := back[i]
			i++
			if s.value(w.blocker) == lTrue {
				back[j] = w
				j++
				continue
			}
			hdr := s.arena[w.cref]
			if hdr&hdrDeleted != 0 {
				continue // drop watcher of a deleted clause
			}
			base := litBase(w.cref, hdr)
			// Ensure the clause's first literal is the other watched one.
			if Lit(s.arena[base]) == p.Not() {
				s.arena[base], s.arena[base+1] = s.arena[base+1], s.arena[base]
			}
			first := Lit(s.arena[base])
			if first != w.blocker && s.value(first) == lTrue {
				back[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			n := hdr & hdrSizeMask
			found := false
			for k := uint32(2); k < n; k++ {
				if s.value(Lit(s.arena[base+k])) != lFalse {
					s.arena[base+1], s.arena[base+k] = s.arena[base+k], s.arena[base+1]
					nl := Lit(s.arena[base+1])
					// push, spelled out: the call is not inlined here.
					nw := &s.watches.win[nl.Not()]
					if nw.n == nw.cap {
						s.watches.move(nw)
						back = s.watches.back
					}
					back[nw.off+nw.n] = watcher{w.cref, first}
					nw.n++
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting: keep the watcher (once).
			back[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				conflict = w.cref
				s.qhead = len(s.trail)
				j += uint32(copy(back[j:], back[i:end]))
				break
			}
			s.assign(first, w.cref)
		}
		pw.n = j - pw.off
		if conflict != refUndef {
			return conflict
		}
	}
	return refUndef
}

// decisionLevel is the current number of decisions on the trail.
func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// newDecisionLevel marks a decision boundary.
func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = !l.Neg()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reason[v] = refUndef
		s.order.insert(v, s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// bumpVar increases a variable's VSIDS activity.
func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.order.scale(1e-100)
		s.varInc *= 1e-100
	}
	s.order.update(v, s.activity)
}

// ensureLBDStamp grows the per-level stamp array to cover lvl. NewVar
// reserves one slot per variable, but duplicate assumption literals each
// open their own (empty) decision level, so the level count can exceed
// the variable count.
func (s *Solver) ensureLBDStamp(lvl int32) {
	for int32(len(s.lbdStamp)) <= lvl {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
}

// computeLBDLits returns the literals-block-distance of a clause given
// as a literal slice: the number of distinct non-zero decision levels
// among its (assigned) literals. Lower is better (Audemard & Simon).
func (s *Solver) computeLBDLits(lits []Lit) uint32 {
	g := nextStamp(s.lbdStamp, &s.lbdGen)
	var lbd uint32
	for _, l := range lits {
		lvl := s.level[l.Var()]
		if lvl == 0 {
			continue
		}
		s.ensureLBDStamp(lvl)
		if s.lbdStamp[lvl] != g {
			s.lbdStamp[lvl] = g
			lbd++
		}
	}
	return lbd
}

// computeLBDRef is computeLBDLits over an arena clause.
func (s *Solver) computeLBDRef(ref uint32) uint32 {
	g := nextStamp(s.lbdStamp, &s.lbdGen)
	var lbd uint32
	for _, w := range s.lits(ref) {
		lvl := s.level[Lit(w).Var()]
		if lvl == 0 {
			continue
		}
		s.ensureLBDStamp(lvl)
		if s.lbdStamp[lvl] != g {
			s.lbdStamp[lvl] = g
			lbd++
		}
	}
	return lbd
}

// analyze performs 1UIP conflict analysis, returning the learned clause
// (first literal is the asserting one) and the backtrack level. The
// returned slice aliases an internal buffer valid until the next call.
func (s *Solver) analyze(conflictRef uint32) ([]Lit, int) {
	learned := append(s.learnedBuf[:0], 0) // placeholder for asserting literal
	counter := 0
	p := Lit(-1)
	idx := len(s.trail) - 1
	cref := conflictRef

	visit := func(q Lit) {
		v := q.Var()
		if s.seen[v] || s.level[v] == 0 {
			return
		}
		s.seen[v] = true
		s.bumpVar(v)
		if int(s.level[v]) >= s.decisionLevel() {
			counter++
		} else {
			learned = append(learned, q)
		}
	}
	for {
		switch {
		case cref == refBinConfl:
			visit(s.binConfl[0])
			visit(s.binConfl[1])
		case isBinRef(cref):
			// Binary reason of p: the clause {p, other}.
			visit(binRefOther(cref))
		default:
			hdr := s.arena[cref]
			if hdr&hdrLearned != 0 {
				s.bumpClause(cref)
				// Glucose: refresh the LBD of reused learned clauses.
				if lbd := s.computeLBDRef(cref); lbd < s.clauseLBD(cref) {
					s.setClauseLBD(cref, lbd)
				}
			}
			base := litBase(cref, hdr)
			start := uint32(0)
			if p != Lit(-1) {
				start = 1 // lits[0] is the implied literal p
			}
			for k := start; k < hdr&hdrSizeMask; k++ {
				visit(Lit(s.arena[base+k]))
			}
		}
		// Find next literal to expand.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		cref = s.reason[p.Var()]
		s.seen[p.Var()] = false
		idx--
		counter--
		if counter <= 0 {
			break
		}
		// Re-orient: when expanding an arena reason clause, move the
		// implied literal (equal to p) first so start=1 skips it.
		if !isBinRef(cref) {
			w := s.lits(cref)
			if Lit(w[0]) != p {
				for k := 1; k < len(w); k++ {
					if Lit(w[k]) == p {
						w[0], w[k] = w[k], w[0]
						break
					}
				}
			}
		}
	}
	learned[0] = p.Not()

	// Clause minimization: drop literals implied by the rest. Keep the
	// pre-minimization set for seen-flag cleanup: literals removed here
	// must not leave stale marks for future analyses.
	toClear := append(s.clearBuf[:0], learned...)
	s.clearBuf = toClear
	for _, l := range learned {
		s.seen[l.Var()] = true
	}
	out := learned[:1]
	for _, l := range learned[1:] {
		if !s.redundant(l) {
			out = append(out, l)
		}
	}
	learned = out

	// Compute backtrack level: second-highest level in clause.
	btLevel := 0
	if len(learned) > 1 {
		maxI := 1
		for i := 2; i < len(learned); i++ {
			if s.level[learned[i].Var()] > s.level[learned[maxI].Var()] {
				maxI = i
			}
		}
		learned[1], learned[maxI] = learned[maxI], learned[1]
		btLevel = int(s.level[learned[1].Var()])
	}
	for _, l := range toClear {
		s.seen[l.Var()] = false
	}
	s.learnedBuf = learned
	return learned, btLevel
}

// redundant reports whether literal l in a learned clause is implied by
// the remaining marked literals (simple non-recursive minimization: l is
// redundant if every literal of its reason clause is already marked or at
// level 0).
func (s *Solver) redundant(l Lit) bool {
	ref := s.reason[l.Var()]
	if ref == refUndef {
		return false
	}
	if isBinRef(ref) {
		q := binRefOther(ref)
		return s.seen[q.Var()] || s.level[q.Var()] == 0
	}
	for _, w := range s.lits(ref) {
		q := Lit(w)
		if q.Var() == l.Var() {
			continue
		}
		if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
			return false
		}
	}
	return true
}

// bumpClause increases a learned clause's activity.
func (s *Solver) bumpClause(ref uint32) {
	act := s.clauseAct(ref) + float32(s.clauseInc)
	s.setClauseAct(ref, act)
	if act > 1e20 {
		for _, r := range s.learnts {
			s.setClauseAct(r, s.clauseAct(r)*1e-20)
		}
		s.clauseInc *= 1e-20
	}
}

// reduceDB deletes roughly half of the local learned tier. The core
// tier (LBD ≤ coreLBD) and reason clauses are kept forever; the rest
// are ranked worst-first by LBD (descending), then activity
// (ascending), with the clause ref as a final deterministic tiebreak.
// Deleted clauses are purged from the watch lists in one batch and
// their storage reclaimed by the next arena GC.
func (s *Solver) reduceDB() {
	s.DBReductions++
	cand := s.reduceBuf[:0]
	for _, ref := range s.learnts {
		if s.clauseLBD(ref) > coreLBD && !s.isReason(ref) {
			cand = append(cand, ref)
		}
	}
	s.reduceBuf = cand[:0]
	if len(cand) == 0 {
		s.maybeGC()
		return
	}
	sort.Slice(cand, func(i, j int) bool {
		a, b := cand[i], cand[j]
		la, lb := s.clauseLBD(a), s.clauseLBD(b)
		if la != lb {
			return la > lb
		}
		aa, ab := s.clauseAct(a), s.clauseAct(b)
		if aa != ab {
			return aa < ab
		}
		return a < b
	})
	for _, ref := range cand[:len(cand)/2] {
		s.markDeleted(ref)
	}
	kept := s.learnts[:0]
	for _, ref := range s.learnts {
		if !s.deleted(ref) {
			kept = append(kept, ref)
		}
	}
	s.learnts = kept
	s.cleanWatches()
	s.maybeGC()
}

// isReason reports whether the clause is the reason of a trail literal.
func (s *Solver) isReason(ref uint32) bool {
	w := s.lits(ref)
	if len(w) == 0 {
		return false
	}
	l := Lit(w[0])
	return s.value(l) != lUndef && s.reason[l.Var()] == ref
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (1<<uint(k))-1 {
			return 1 << uint(k-1)
		}
		if i < (1<<uint(k))-1 {
			return luby(i - (1 << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// After Unsat, UnsatCore returns the subset of assumptions used; after
// Sat, Value/ValueLit expose the model.
func (s *Solver) Solve(assumptions ...Lit) Status {
	if faultinject.Enabled() {
		// Chaos injection sites: a crash inside the search, a spurious
		// asynchronous interruption, and an instantly exhausted conflict
		// budget. All are no-ops unless armed (see internal/faultinject).
		faultinject.Eval(faultinject.SATSolvePanic)
		if faultinject.Eval(faultinject.SATSpuriousInterrupt) != nil {
			s.stop.Store(true)
		}
		if faultinject.Eval(faultinject.SATBudgetStarve) != nil {
			return Unknown
		}
	}
	if len(assumptions) > 0 {
		s.AssumpSolves++
	}
	if !s.ok {
		s.core = nil
		return Unsat
	}
	s.assumptions = assumptions
	s.core = nil
	defer s.cancelUntil(0)

	var restarts int64
	conflictBudget := luby(1) * 100
	conflictsHere := int64(0)
	startConflicts := s.Conflicts

	for {
		if s.stop.Load() {
			return Unknown
		}
		if s.Budget > 0 && s.Conflicts-startConflicts > s.Budget {
			return Unknown
		}
		conflictRef := s.propagate()
		if conflictRef != refUndef {
			s.Conflicts++
			conflictsHere++
			if s.decisionLevel() == 0 {
				// Conflict with no decisions at all: the formula is
				// permanently unsatisfiable. Marking ok=false matters for
				// incremental reuse — the conflict aborted propagation
				// mid-queue, so the level-0 trail may be missing
				// implications forever after.
				s.ok = false
				s.core = nil
				return Unsat
			}
			if s.decisionLevel() <= len(s.assumptionsOnTrail()) {
				// Conflict under assumptions only: extract core.
				s.analyzeFinal(conflictRef)
				return Unsat
			}
			learned, btLevel := s.analyze(conflictRef)
			lbd := s.computeLBDLits(learned)
			s.cancelUntil(btLevel)
			s.LearnedLits += int64(len(learned))
			switch len(learned) {
			case 1:
				if !s.enqueue(learned[0], refUndef) {
					s.ok = false
					return Unsat
				}
			case 2:
				s.addBinary(learned[0], learned[1])
				s.assign(learned[0], mkBinRef(learned[1]))
			default:
				ref := s.newClause(learned, true, lbd)
				s.assign(learned[0], ref)
			}
			s.varInc /= 0.95
			s.clauseInc /= 0.999
			if s.numLearned > s.maxLearned {
				s.reduceDB()
				s.maxLearned += s.maxLearned / 10
			}
			continue
		}
		if conflictsHere >= conflictBudget {
			// Restart.
			restarts++
			s.Restarts++
			conflictBudget = luby(restarts+1) * 100
			conflictsHere = 0
			s.cancelUntil(0)
			continue
		}
		// Extend with the next assumption, or decide.
		lvl := s.decisionLevel()
		if lvl < len(s.assumptions) {
			a := s.assumptions[lvl]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; open an empty level to keep the
				// level↔assumption correspondence.
				s.newDecisionLevel()
				continue
			case lFalse:
				// Assumption conflicts with current state.
				s.coreFromFailedAssumption(a)
				return Unsat
			}
			s.newDecisionLevel()
			s.assign(a, refUndef)
			continue
		}
		v := s.pickBranchVar()
		if v == -1 {
			if debugParanoid {
				s.debugVerifyModel()
			}
			s.snapshotModel()
			return Sat
		}
		s.Decisions++
		s.newDecisionLevel()
		s.assign(MkLit(v, !s.phase[v]), refUndef)
	}
}

// assumptionsOnTrail returns the assumption literals currently enforced
// (one per decision level up to len(assumptions)).
func (s *Solver) assumptionsOnTrail() []Lit {
	n := s.decisionLevel()
	if n > len(s.assumptions) {
		n = len(s.assumptions)
	}
	return s.assumptions[:n]
}

// snapshotModel copies the current full assignment, one value per
// variable, into the model.
func (s *Solver) snapshotModel() {
	n := s.NumVars()
	if cap(s.model) < n {
		s.model = make([]lbool, n)
	}
	s.model = s.model[:n]
	for v := range s.model {
		s.model[v] = s.vals[2*v]
	}
}

// pickBranchVar selects the highest-activity unassigned variable.
func (s *Solver) pickBranchVar() Var {
	for {
		v, ok := s.order.popMax()
		if !ok {
			return -1
		}
		if s.vals[MkLit(v, false)] == lUndef {
			return v
		}
	}
}

// analyzeFinal computes the unsat core from a conflict that depends only
// on assumptions: all assumption literals reachable backward from the
// conflict.
func (s *Solver) analyzeFinal(conflictRef uint32) {
	s.startCore()
	if conflictRef == refBinConfl {
		s.markCore(s.binConfl[0])
		s.markCore(s.binConfl[1])
	} else {
		for _, w := range s.lits(conflictRef) {
			s.markCore(Lit(w))
		}
	}
	s.walkCore(-1)
}

// coreFromFailedAssumption computes the core when assumption a is already
// false on the trail.
func (s *Solver) coreFromFailedAssumption(a Lit) {
	s.startCore()
	s.core = append(s.core, a)
	s.markCore(a)
	s.walkCore(a)
}

// startCore empties the core and the walk's scratch buffers.
func (s *Solver) startCore() {
	s.core = s.coreBuf[:0]
	s.varBuf = s.varBuf[:0]
	s.clearBuf = s.clearBuf[:0]
}

// markCore queues l's variable for walkCore unless it is already marked.
func (s *Solver) markCore(l Lit) {
	if v := l.Var(); !s.seen[v] {
		s.seen[v] = true
		s.varBuf = append(s.varBuf, v)
		s.clearBuf = append(s.clearBuf, l)
	}
}

// walkCore follows reasons backward from the queued variables, depth
// first, visiting each variable once (marked by the seen flags, which it
// clears before returning), and appends to the core, for every decision
// it reaches above level 0, the first assumption on that variable other
// than failed.
func (s *Solver) walkCore(failed Lit) {
	for len(s.varBuf) > 0 {
		v := s.varBuf[len(s.varBuf)-1]
		s.varBuf = s.varBuf[:len(s.varBuf)-1]
		if s.level[v] == 0 {
			continue
		}
		ref := s.reason[v]
		switch {
		case ref == refUndef:
			// Decision: must be an assumption (the conflict is at
			// assumption levels).
			for _, a := range s.assumptions {
				if a.Var() == v && a != failed {
					s.core = append(s.core, a)
					break
				}
			}
		case isBinRef(ref):
			s.markCore(binRefOther(ref))
		default:
			for _, w := range s.lits(ref) {
				s.markCore(Lit(w))
			}
		}
	}
	for _, l := range s.clearBuf {
		s.seen[l.Var()] = false
	}
	s.coreBuf = s.core
	s.CoresExtracted++
}

// UnsatCore returns the subset of the last Solve call's assumptions that
// were involved in proving unsatisfiability. Valid only after Unsat; the
// next Solve call reuses the slice, so copy it to keep it.
func (s *Solver) UnsatCore() []Lit { return s.core }

// Okay reports whether the formula is still possibly satisfiable (false
// after a clause contradiction at level 0).
func (s *Solver) Okay() bool { return s.ok }

// Interrupt asynchronously stops the in-flight Solve call at its next
// search-loop iteration (a conflict or decision boundary, so within
// microseconds on typical instances); the call returns Unknown. The flag
// is sticky — subsequent Solve calls also return Unknown immediately —
// which lets a cancelled MaxSAT driver unwind through its remaining SAT
// calls without restarting work. Interrupt is the only solver method safe
// to call from another goroutine.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt re-arms the solver after an Interrupt.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// Interrupted reports whether Interrupt has been called without a
// subsequent ClearInterrupt. It distinguishes an Unknown verdict caused
// by cancellation from one caused by an exhausted conflict Budget.
func (s *Solver) Interrupted() bool { return s.stop.Load() }
