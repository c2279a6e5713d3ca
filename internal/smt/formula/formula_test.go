package formula

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/smt/sat"
)

// fresh returns a pool, its builder and n variables.
func fresh(n int) (*Pool, *Builder, []F) {
	p := NewPool()
	vars := make([]F, n)
	for i := range vars {
		vars[i] = p.Fresh()
	}
	return p, NewBuilder(p), vars
}

// value evaluates f under s's model (valid after Sat), where s was loaded
// from b. Variables no constraint used are false.
func value(b *Builder, s *sat.Solver, f F) bool {
	if f&negBit != 0 {
		return !value(b, s, Not(f))
	}
	i, op, ok := b.p.node(f)
	switch {
	case f.IsVar():
		l := *slot(&b.varLits, f.Var())
		return l != 0 && s.ValueLit(l-1)
	case !ok:
		return true
	}
	decides := op == OpOr // the kid value that settles the junction
	for _, k := range b.p.kidsOf(i) {
		if value(b, s, k) == decides {
			return decides
		}
	}
	return !decides
}

// load solves the builder's CNF in a new solver.
func load(b *Builder) (*sat.Solver, sat.Status) {
	s := sat.New()
	s.Load(b.NumVars(), b.Stream()...)
	return s, s.Solve()
}

func TestConstantFolding(t *testing.T) {
	p, _, v := fresh(1)
	a := v[0]
	if p.And() != True {
		t.Error("empty And should be True")
	}
	if p.Or() != False {
		t.Error("empty Or should be False")
	}
	if p.And(a, False) != False {
		t.Error("And with False should fold")
	}
	if p.Or(a, True) != True {
		t.Error("Or with True should fold")
	}
	if p.And(True, a) != a {
		t.Error("And(True, a) should be a")
	}
	if p.Or(False, a) != a {
		t.Error("Or(False, a) should be a")
	}
	if Not(True) != False || Not(False) != True {
		t.Error("Not on constants should fold")
	}
	if Not(Not(a)) != a {
		t.Error("double negation should fold")
	}
	if a == 0 || Not(a) == 0 || True == 0 || False == 0 {
		t.Error("the zero handle is reserved for \"no formula\"")
	}
}

func TestFlattening(t *testing.T) {
	p, _, v := fresh(3)
	a, b, c := v[0], v[1], v[2]
	if f := p.And(p.And(a, b), c); f != p.And(a, b, c) {
		t.Errorf("nested And not flattened: %s", p.String(f))
	}
	if g := p.Or(p.Or(a, b), c); g != p.Or(a, b, c) {
		t.Errorf("nested Or not flattened: %s", p.String(g))
	}
	// Only un-negated same-op operands are spliced: ¬(a∧b) keeps its node
	// (and so its Tseitin variable) inside a disjunction.
	if f := p.Or(Not(p.And(a, b)), c); f == p.Or(Not(a), Not(b), c) {
		t.Error("a negated conjunction must not be rewritten into the disjunction")
	}
}

func TestString(t *testing.T) {
	p, _, v := fresh(2)
	if got := p.String(p.And(v[0], Not(v[1]))); got != "(v0 & !v1)" {
		t.Errorf("String = %q", got)
	}
}

func TestHashConsing(t *testing.T) {
	p, _, v := fresh(2)
	a, b := v[0], v[1]
	if p.And(a, b) != p.And(a, b) {
		t.Error("structurally identical And nodes not hash-consed")
	}
	if p.Or(a, Not(b)) != p.Or(a, Not(b)) {
		t.Error("structurally identical Or/Not nodes not hash-consed")
	}
	if p.Implies(a, b) != p.Implies(a, b) {
		t.Error("structurally identical Implies nodes not hash-consed")
	}
	if p.And(a, b) == p.And(b, a) {
		t.Error("distinct kid orders must be distinct nodes (And does not sort)")
	}
	if p.And(a, b) == p.Or(a, b) {
		t.Error("And and Or over the same kids must be distinct nodes")
	}
	// Constants fold away before interning.
	if p.And(a, True, b) != p.And(a, b) {
		t.Error("constant folding should reach the same node")
	}
	// Sharing survives the index growing past its initial size.
	first, before := p.And(a, b), p.Size()
	for i := 0; i < 1000; i++ {
		p.And(a, p.Fresh())
	}
	if p.And(a, b) != first || p.Size() != before+1000 {
		t.Errorf("after growth: And(a, b) moved or nodes were duplicated (size %d)", p.Size())
	}
}

func TestResetReuses(t *testing.T) {
	p, b, v := fresh(2)
	b.Assert(p.And(v[0], Not(v[1])))
	b.Reset()
	if p.Size() != 0 || b.NumVars() != 0 || len(b.Stream()) != 0 {
		t.Fatal("Reset left nodes, variables or clauses behind")
	}
	x, y := p.Fresh(), p.Fresh()
	b.Assert(p.Or(x, y))
	b.Assert(Not(x))
	s, st := load(b)
	if st != sat.Sat || value(b, s, x) || !value(b, s, y) {
		t.Error("a reset builder must encode the next formula from scratch")
	}
}

func TestFreshDistinct(t *testing.T) {
	p, b, v := fresh(2)
	if v[0] == v[1] {
		t.Fatal("Fresh returned the same variable twice")
	}
	b.Assert(v[0])
	b.Assert(Not(v[1]))
	s, st := load(b)
	if st != sat.Sat {
		t.Fatal("distinct fresh vars must be independently assignable")
	}
	if !value(b, s, v[0]) || value(b, s, v[1]) || value(b, s, p.Fresh()) {
		t.Error("fresh var model values wrong (unused variables read false)")
	}
}

func solveF(p *Pool, f F) (*Builder, *sat.Solver, sat.Status) {
	b := NewBuilder(p)
	b.Assert(f)
	s, st := load(b)
	return b, s, st
}

func TestAssertSatUnsat(t *testing.T) {
	p, _, v := fresh(2)
	a, b := v[0], v[1]
	bd, s, st := solveF(p, p.And(a, Not(b)))
	if st != sat.Sat {
		t.Fatal("want sat")
	}
	if !value(bd, s, a) || value(bd, s, b) {
		t.Error("model wrong")
	}
	if _, _, st := solveF(p, p.And(a, Not(a))); st != sat.Unsat {
		t.Fatal("want unsat")
	}
	if _, _, st := solveF(p, False); st != sat.Unsat {
		t.Error("asserting False should be unsat")
	}
}

func TestImpliesIffXor(t *testing.T) {
	p, _, v := fresh(2)
	a, b := v[0], v[1]
	// a ∧ (a→b) forces b.
	if bd, s, st := solveF(p, p.And(a, p.Implies(a, b))); st != sat.Sat || !value(bd, s, b) {
		t.Error("Implies chain failed")
	}
	// Iff: a↔b with ¬a forces ¬b.
	if bd, s, st := solveF(p, p.And(Not(a), p.Iff(a, b))); st != sat.Sat || value(bd, s, b) {
		t.Error("Iff failed")
	}
	// Xor: a⊕b with a forces ¬b.
	if bd, s, st := solveF(p, p.And(a, p.Xor(a, b))); st != sat.Sat || value(bd, s, b) {
		t.Error("Xor failed")
	}
}

func TestAtMostOne(t *testing.T) {
	_, b, v := fresh(3)
	b.AtMostOne(b.Lit(v[0]), b.Lit(v[1]), b.Lit(v[2]))
	b.Assert(v[0])
	if _, st := load(b); st != sat.Sat {
		t.Error("one of an at-most-one set should be sat")
	}
	b.Assert(v[1])
	if _, st := load(b); st != sat.Unsat {
		t.Error("two of an at-most-one set should be unsat")
	}
}

func TestTseitinCacheReuse(t *testing.T) {
	p, b, v := fresh(2)
	f := p.And(v[0], v[1])
	l1 := b.Lit(f)
	n := len(slices.Concat(b.Stream()...))
	if l2 := b.Lit(p.And(v[0], v[1])); l1 != l2 || len(slices.Concat(b.Stream()...)) != n {
		t.Error("a node's Tseitin definition should be emitted once")
	}
	if b.Lit(Not(f)) != l1.Not() {
		t.Error("a negated handle is the negated literal")
	}
}

func TestConstantsAsSubformulas(t *testing.T) {
	_, b, _ := fresh(0)
	tl, fl := b.Lit(True), b.Lit(False)
	s, st := load(b)
	if st != sat.Sat {
		t.Fatal("want sat")
	}
	if !s.ValueLit(tl) || s.ValueLit(fl) {
		t.Error("constant literals wrong")
	}
}

// TestNumberingContract pins the order solver variables are handed out
// in: a formula variable at first use, a composite after all its kids.
func TestNumberingContract(t *testing.T) {
	p, b, v := fresh(3)
	f := p.Or(p.And(v[2], v[0]), Not(p.And(v[0], v[1])))
	b.Assert(f) // clause over the two conjunctions: no variable for the Or
	want := map[F]int{v[2]: 0, v[0]: 1, p.And(v[2], v[0]): 2, v[1]: 3, p.And(v[0], v[1]): 4}
	for g, n := range want {
		if l := b.Lit(g); l != sat.MkLit(sat.Var(n), false) {
			t.Errorf("%s got literal %v, want variable %d", p.String(g), l, n)
		}
	}
	if b.NumVars() != 5 {
		t.Errorf("NumVars = %d, want 5", b.NumVars())
	}
	if tab := b.VarTable(); len(tab) != 3 || tab[0] != 3 || tab[1] != 7 || tab[2] != 1 {
		t.Errorf("VarTable = %v, want literal+1 per variable: [3 7 1]", tab)
	}
}

// TestAssertOrMatchesOr holds the no-interning clausifiers to the CNF of
// the interned formulas they stand for.
func TestAssertOrMatchesOr(t *testing.T) {
	build := func(direct bool) ([]sat.Lit, int) {
		p, b, v := fresh(4)
		inner := p.Or(v[1], v[2])
		conj := p.And(v[2], v[3])
		if direct {
			b.AssertOr(Not(v[0]), inner, False)
			b.AssertOr(True, v[0])
			b.AssertOr(False, conj)
			b.AssertImplies(conj, v[0])
			b.AssertIff(v[3], inner)
			b.AssertOr()
		} else {
			b.Assert(p.Or(Not(v[0]), inner, False))
			b.Assert(p.Or(True, v[0]))
			b.Assert(p.Or(False, conj))
			b.Assert(p.Implies(conj, v[0]))
			b.Assert(p.Iff(v[3], inner))
			b.Assert(p.Or())
		}
		return slices.Concat(b.Stream()...), b.NumVars()
	}
	want, wantVars := build(false)
	got, gotVars := build(true)
	if gotVars != wantVars || len(got) != len(want) {
		t.Fatalf("direct: %d vars, %d stream words; interned: %d vars, %d words", gotVars, len(got), wantVars, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("streams differ at word %d: direct %v, interned %v", i, got[i], want[i])
		}
	}
}

// TestDefineMatchesLit holds the literal-level definers to the Tseitin
// definitions Lit writes for the nodes they stand for: operands numbered
// in kid order, then the node's variable and clauses.
func TestDefineMatchesLit(t *testing.T) {
	build := func(direct bool) ([]sat.Lit, int) {
		p, b, v := fresh(4)
		if direct {
			x, y := b.Lit(v[0]), b.Lit(Not(v[1]))
			and := b.DefineAnd(x, y)
			b.Clause(b.DefineOr(and.Not(), b.Lit(v[2]), b.Lit(v[3])))
		} else {
			b.Clause(b.Lit(p.Or(Not(p.And(v[0], Not(v[1]))), v[2], v[3])))
		}
		return slices.Concat(b.Stream()...), b.NumVars()
	}
	want, wantVars := build(false)
	got, gotVars := build(true)
	if gotVars != wantVars || !slices.Equal(got, want) {
		t.Fatalf("defined in place: %d vars, stream %v; interned: %d vars, stream %v", gotVars, got, wantVars, want)
	}
}

// randomFormula builds a random formula over vars.
func randomFormula(r *rand.Rand, p *Pool, depth int, vars []F) F {
	if depth == 0 || r.Intn(3) == 0 {
		v := vars[r.Intn(len(vars))]
		if r.Intn(2) == 0 {
			return Not(v)
		}
		return v
	}
	kids := make([]F, 2+r.Intn(2))
	for i := range kids {
		kids[i] = randomFormula(r, p, depth-1, vars)
	}
	switch r.Intn(4) {
	case 0:
		return p.And(kids...)
	case 1:
		return p.Or(kids...)
	case 2:
		return Not(p.And(kids...))
	default:
		return p.Implies(kids[0], kids[1])
	}
}

// evalBrute evaluates f under an assignment of the variables (bit i of
// assign is variable i), independently of value.
func evalBrute(p *Pool, f F, assign int) bool {
	if f&negBit != 0 {
		return !evalBrute(p, Not(f), assign)
	}
	if f.IsVar() {
		return assign&(1<<f.Var()) != 0
	}
	i, op, ok := p.node(f)
	if !ok {
		return true
	}
	for _, k := range p.kidsOf(i) {
		if evalBrute(p, k, assign) != (op == OpAnd) {
			return op == OpOr
		}
	}
	return op == OpAnd
}

// Property: Tseitin-encoded satisfiability equals brute-force
// satisfiability, returned models evaluate to true, and rebuilding a
// formula from the same random sequence yields the same handle.
func TestDifferentialTseitin(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, b, vars := fresh(2 + r.Intn(4))
		form := randomFormula(rand.New(rand.NewSource(seed+1)), p, 3, vars)
		if again := randomFormula(rand.New(rand.NewSource(seed+1)), p, 3, vars); again != form {
			t.Logf("seed %d: replaying the rand sequence produced a different handle", seed)
			return false
		}
		bruteSat := false
		for assign := 0; assign < 1<<len(vars) && !bruteSat; assign++ {
			bruteSat = evalBrute(p, form, assign)
		}
		b.Assert(form)
		s, st := load(b)
		if (st == sat.Sat) != bruteSat {
			t.Logf("seed %d: formula %s: status %v, brute sat=%v", seed, p.String(form), st, bruteSat)
			return false
		}
		if st == sat.Sat && !value(b, s, form) {
			t.Logf("seed %d: model does not satisfy %s", seed, p.String(form))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStreamChunks pins the stream's storage: every chunk holds whole
// clauses, a clause wider than the next chunk gets a chunk of its own
// width, the chunks concatenate to the stream the clauses were emitted
// as, and a reset builder writes the same stream again into the chunks it
// kept, allocating none.
func TestStreamChunks(t *testing.T) {
	_, b, v := fresh(64)
	r := rand.New(rand.NewSource(29))
	clauses := make([][]F, 5000)
	for i := range clauses {
		width := 1 + r.Intn(4)
		if i == 3 {
			width = 1 << (firstChunkLog + 1) // wider than the second chunk
		}
		for j := 0; j < width; j++ {
			clauses[i] = append(clauses[i], v[r.Intn(len(v))])
		}
	}
	encode := func() {
		for _, c := range clauses {
			b.anyOf(c)
		}
	}
	encode()
	var want []sat.Lit
	for _, c := range clauses {
		lits := make([]sat.Lit, len(c))
		for j, f := range c {
			lits[j] = b.Lit(f)
		}
		want = sat.AppendClause(want, lits...)
	}
	chunks := b.Stream()
	if len(chunks) < 3 {
		t.Fatalf("%d chunks for %d literals, want several", len(chunks), len(want))
	}
	if got := slices.Concat(chunks...); !slices.Equal(got, want) {
		t.Fatalf("chunks concatenate to %d literals, want the %d emitted", len(got), len(want))
	}
	for i, c := range chunks {
		for k := 0; k < len(c); k += 1 + int(c[k]) {
			if k+1+int(c[k]) > len(c) {
				t.Fatalf("chunk %d: clause at %d runs past the chunk's end", i, k)
			}
		}
	}
	if c := chunks[1]; cap(c) < 1<<(firstChunkLog+1) {
		t.Errorf("second chunk holds %d literals, want the wide clause's %d", cap(c), 1<<(firstChunkLog+1))
	}
	first := &chunks[len(chunks)-1][0]
	if allocs := testing.AllocsPerRun(3, func() { b.Reset(); encode() }); allocs != 0 {
		t.Errorf("a reset builder allocated %.0f times re-encoding the same stream, want 0", allocs)
	}
	if again := b.Stream(); !slices.Equal(slices.Concat(again...), want) || &again[len(again)-1][0] != first {
		t.Error("a reset builder must write the same stream into the chunks it kept")
	}
}

// refAtMostOne, refDefineAnd and refDefineOr are the reference writers:
// one Clause call per clause, in the order the in-place writers must
// reproduce.
func refAtMostOne(b *Builder, lits ...sat.Lit) {
	for i := range lits {
		for j := i + 1; j < len(lits); j++ {
			b.Clause(lits[i].Not(), lits[j].Not())
		}
	}
}

func refDefineAnd(b *Builder, lits ...sat.Lit) sat.Lit {
	l := b.newVar()
	long := []sat.Lit{l}
	for _, k := range lits {
		b.Clause(l.Not(), k)
		long = append(long, k.Not())
	}
	b.Clause(long...)
	return l
}

func refDefineOr(b *Builder, lits ...sat.Lit) sat.Lit {
	l := b.newVar()
	long := []sat.Lit{l.Not()}
	for _, k := range lits {
		b.Clause(k.Not(), l)
		long = append(long, k)
	}
	b.Clause(long...)
	return l
}

// writers is one way to write each kind of clause group: in place, or
// through the references.
type writers struct {
	binary    func(b *Builder, x, y sat.Lit)
	atMostOne func(b *Builder, lits ...sat.Lit)
	defineAnd func(b *Builder, lits ...sat.Lit) sat.Lit
	defineOr  func(b *Builder, lits ...sat.Lit) sat.Lit
}

var (
	inPlace = writers{(*Builder).Binary, (*Builder).AtMostOne, (*Builder).DefineAnd, (*Builder).DefineOr}
	perCall = writers{func(b *Builder, x, y sat.Lit) { b.Clause(x, y) }, refAtMostOne, refDefineAnd, refDefineOr}
)

// writeRandom drives b through w with a random sequence of clause groups
// over the variables numbered so far and returns every literal a definer
// returned. The same seed makes the same calls whichever writers are used.
func writeRandom(b *Builder, w writers, seed int64) []sat.Lit {
	r := rand.New(rand.NewSource(seed))
	p := b.Pool()
	var defined []sat.Lit
	pick := func(n int) []sat.Lit {
		lits := make([]sat.Lit, n)
		for i := range lits {
			if b.NumVars() == 0 || r.Intn(8) == 0 {
				lits[i] = b.Lit(p.Fresh())
			} else {
				lits[i] = sat.MkLit(sat.Var(r.Intn(b.NumVars())), r.Intn(2) == 0)
			}
		}
		return lits
	}
	for op := 0; op < 300; op++ {
		switch r.Intn(5) {
		case 0:
			lits := pick(2)
			w.binary(b, lits[0], lits[1])
		case 1:
			w.atMostOne(b, pick([]int{0, 1, 2, 3, 50}[r.Intn(5)])...)
		case 2:
			defined = append(defined, w.defineAnd(b, pick(r.Intn(5))...))
		case 3:
			defined = append(defined, w.defineOr(b, pick(r.Intn(5))...))
		default:
			b.Clause(pick(r.Intn(4))...)
		}
	}
	return defined
}

// checkSameCNF fails unless two builders wrote the same stream, word for
// word and chunk for chunk, over the same variables.
func checkSameCNF(t *testing.T, got, want *Builder) {
	t.Helper()
	if got.NumVars() != want.NumVars() {
		t.Fatalf("in place: %d variables, per call: %d", got.NumVars(), want.NumVars())
	}
	g, w := got.Stream(), want.Stream()
	if len(g) != len(w) {
		t.Fatalf("in place: %d chunks, per call: %d", len(g), len(w))
	}
	for i := range w {
		if !slices.Equal(g[i], w[i]) {
			t.Fatalf("chunk %d: in place %d words, per call %d; they differ", i, len(g[i]), len(w[i]))
		}
	}
}

// TestInPlaceWritersMatchPerCall holds Binary, AtMostOne, DefineAnd and
// DefineOr, which write their binary clauses in place, to one Clause call
// per clause: the same chunks and the same variable numbering, on random
// literal sets that include empty and one-literal at-most-one sets and
// empty definitions.
func TestInPlaceWritersMatchPerCall(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p, q := NewPool(), NewPool()
		got, want := NewBuilder(p), NewBuilder(q)
		gl, wl := writeRandom(got, inPlace, seed), writeRandom(want, perCall, seed)
		if !slices.Equal(gl, wl) {
			t.Fatalf("seed %d: definers returned %v in place, %v per call", seed, gl, wl)
		}
		checkSameCNF(t, got, want)
	}
}

// TestInPlaceRowCrossesChunk writes an at-most-one row and two
// definitions, each longer than what is left of the open chunk once
// chunks have reached their largest size: the pairs fill the chunk to
// its last whole clause and go on in the next, as per-call writing puts
// them.
func TestInPlaceRowCrossesChunk(t *testing.T) {
	p, q := NewPool(), NewPool()
	got, want := NewBuilder(p), NewBuilder(q)
	vars := make([]sat.Lit, 50)
	for i := range vars {
		vars[i] = got.Lit(p.Fresh())
		want.Lit(q.Fresh())
	}
	fill := func(room int) {
		for got.used == 0 || cap(got.open) < 1<<maxChunkLog || cap(got.open)-len(got.open) > room {
			got.Clause(vars[0])
			want.Clause(vars[0])
		}
	}
	fill(10)
	if room := cap(got.open) - len(got.open); room != 10 {
		t.Fatalf("the open chunk has room for %d literals, want 10", room)
	}
	before := got.used
	got.AtMostOne(vars...)
	refAtMostOne(want, vars...)
	if got.used != before+1 || len(got.chunks[before-1]) != 1<<maxChunkLog-1 {
		t.Fatalf("the first row did not fill the chunk to its last pair: %d chunks, the full one holds %d", got.used, len(got.chunks[before-1]))
	}
	fill(20)
	got.DefineOr(vars...)
	refDefineOr(want, vars...)
	fill(20)
	got.DefineAnd(vars...)
	refDefineAnd(want, vars...)
	checkSameCNF(t, got, want)
}
