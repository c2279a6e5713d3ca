package sat_test

import (
	"math/rand"
	"testing"

	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

// loadInput is one Load-versus-AddClause differential case: clauses over
// nVars variables, late clauses that both solvers get through
// NewVar/AddClause after the load (over lateVars more variables: a push
// into a window the load sized exactly has to move the list), plus
// unit-weight softs for the MaxSAT leg (OLL's totalizers add variables
// and clauses too).
type loadInput struct {
	nVars   int
	clauses [][]sat.Lit
	late    [][]sat.Lit
	softs   []sat.Lit
}

// lateVars is how many variables the late clauses may use beyond nVars.
const lateVars = 2

// decodeLoad reads a case from fuzz bytes: the variable count, the soft
// count, then one token per byte — a literal, or (the two values past the
// literal range) end of clause. Two terminators in a row make an empty
// clause; repeated and complementary literals arise on their own. The
// first time the second terminator value appears it also ends the load:
// the clauses after it are late ones, read over nVars+lateVars variables.
func decodeLoad(data []byte) loadInput {
	in := loadInput{nVars: 1}
	if len(data) > 0 {
		in.nVars += int(data[0]) % 12
	}
	if len(data) > 1 {
		for v, k := 0, int(data[1])%(in.nVars+1); v < k; v++ {
			in.softs = append(in.softs, sat.MkLit(sat.Var(v), v%2 == 1))
		}
		data = data[2:]
	} else {
		data = nil
	}
	clause := []sat.Lit{}
	into, lits := &in.clauses, 2*in.nVars
	for _, b := range data {
		x := int(b) % (lits + 2)
		if x < lits {
			clause = append(clause, sat.Lit(x))
			continue
		}
		*into = append(*into, clause)
		clause = []sat.Lit{}
		if x == lits+1 && into == &in.clauses {
			into, lits = &in.late, 2*(in.nVars+lateVars)
		}
	}
	if len(clause) > 0 {
		*into = append(*into, clause)
	}
	return in
}

// encodeLoad is decodeLoad's inverse for building the seed corpus.
func encodeLoad(nVars, nSofts int, clauses ...[]int) []byte {
	return encodeClauses([]byte{byte(nVars - 1), byte(nSofts)}, nVars, clauses)
}

// encodeLate ends the load after data's last clause and appends late
// clauses over nVars+lateVars variables.
func encodeLate(data []byte, nVars int, late ...[]int) []byte {
	data[len(data)-1]++ // the second terminator value
	return encodeClauses(data, nVars+lateVars, late)
}

func encodeClauses(data []byte, nVars int, clauses [][]int) []byte {
	for _, c := range clauses {
		for _, d := range c { // DIMACS-style: ±(var+1)
			l := sat.MkLit(sat.Var(abs(d)-1), d < 0)
			data = append(data, byte(l))
		}
		data = append(data, byte(2*nVars))
	}
	return data
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkLoad holds one solver built by NewVar/AddClause calls, one built
// by a single Load, and one that a worker would hand out — a solver used
// for an unrelated formula (usedSolver), then Reset — given the same Load
// to the same state: every implication and watch list in order, arena,
// trail and ok (sat.StateDiff), with every solver's storage invariants
// intact, and the same observable behaviour: Okay, counters and model. A
// new and a reset solver also load the stream split into chunks at random
// clause boundaries (some chunks empty), as a formula.Builder hands it
// over, and are held to the same. It compares after the load, after the
// late clauses have been added to all of them through NewVar/AddClause,
// after Solve, and after an OLL MaxSAT run has extended them with
// totalizers. It returns how many variables that run added, so callers
// can tell the leg was exercised.
func checkLoad(t *testing.T, in loadInput) int64 {
	t.Helper()
	seq := sat.New()
	for i := 0; i < in.nVars; i++ {
		seq.NewVar()
	}
	var stream []sat.Lit
	for _, c := range in.clauses {
		seq.AddClause(c...)
		stream = sat.AppendClause(stream, c...)
	}
	chunks := splitClauses(stream, rand.New(rand.NewSource(int64(len(stream)))))
	ld, rc, ldc, rcc := sat.New(), usedSolver(t), sat.New(), usedSolver(t)
	rc.Reset()
	rcc.Reset()
	for _, l := range []struct {
		s      *sat.Solver
		chunks [][]sat.Lit
	}{{ld, [][]sat.Lit{stream}}, {rc, [][]sat.Lit{stream}}, {ldc, chunks}, {rcc, chunks}} {
		if ok := l.s.Load(in.nVars, l.chunks...); ok != l.s.Okay() {
			t.Fatalf("Load returned %v, Okay() = %v", ok, l.s.Okay())
		}
	}
	others := []struct {
		name string
		s    *sat.Solver
	}{{"loaded", ld}, {"recycled", rc}, {"chunked", ldc}, {"chunked recycled", rcc}}
	all := []*sat.Solver{seq, ld, rc, ldc, rcc}
	// hasModel says the stage follows a Sat result, whose model covers
	// every variable.
	same := func(stage string, hasModel bool) {
		t.Helper()
		sat.CheckInvariants(t, seq)
		for _, o := range others {
			if seq.Okay() != o.s.Okay() || seq.NumVars() != o.s.NumVars() {
				t.Fatalf("%s: sequential okay=%v vars=%d, %s okay=%v vars=%d",
					stage, seq.Okay(), seq.NumVars(), o.name, o.s.Okay(), o.s.NumVars())
			}
			if a, b := seq.Snapshot(), o.s.Snapshot(); a != b {
				t.Fatalf("%s: counters differ:\nsequential %+v\n%-10s %+v", stage, a, o.name, b)
			}
			for v := sat.Var(0); hasModel && int(v) < seq.NumVars(); v++ {
				if seq.Value(v) != o.s.Value(v) {
					t.Fatalf("%s: models differ at variable %d: sequential %v, %s %v", stage, v, seq.Value(v), o.name, o.s.Value(v))
				}
			}
			if d := sat.StateDiff(seq, o.s); d != "" {
				t.Fatalf("%s: sequential and %s state differ: %s", stage, o.name, d)
			}
			sat.CheckInvariants(t, o.s)
		}
	}
	same("after load", false)
	if len(in.late) > 0 {
		for _, s := range all {
			for i := 0; i < lateVars; i++ {
				s.NewVar()
			}
			for _, c := range in.late {
				s.AddClause(c...)
			}
		}
		same("after late clauses", false)
	}
	st := make([]sat.Status, len(all))
	for i, s := range all {
		if st[i] = s.Solve(); st[i] != st[0] {
			t.Fatalf("Solve: sequential %v, %s %v", st[0], others[i-1].name, st[i])
		}
	}
	same("after Solve", st[0] == sat.Sat)
	r := make([]maxsat.Result, len(all))
	for i, s := range all {
		if r[i] = maxsat.Solve(s, in.softs, maxsat.OLL); r[i] != r[0] {
			t.Fatalf("MaxSAT: sequential %+v, %s %+v", r[0], others[i-1].name, r[i])
		}
	}
	same("after MaxSAT", r[0].Status == sat.Sat)
	return seq.Snapshot().TotalizerVars
}

// splitClauses cuts a Load stream into chunks at random clause
// boundaries, now and then leaving a chunk empty.
func splitClauses(stream []sat.Lit, rng *rand.Rand) [][]sat.Lit {
	var chunks [][]sat.Lit
	start := 0
	for i := 0; i < len(stream); i += 1 + int(stream[i]) {
		switch rng.Intn(4) {
		case 0:
			chunks = append(chunks, stream[start:i])
			start = i
		case 1:
			chunks = append(chunks, nil)
		}
	}
	return append(chunks, stream[start:])
}

// usedSolver returns a solver that has been through what a worker's
// solver goes through before the worker resets it for the next
// sub-problem, on a formula unrelated to any test's: a load, late clauses,
// a Solve, an OLL descent with a learnt-clause reduction and an arena GC
// forced at every chance, a Solve that runs out of conflict budget (the
// budget left set), and an interrupt left pending. Its formula is two
// pigeonhole instances, each pigeon's at-least-one clause guarded: by a
// soft selector in PHP(5, 4), which OLL must refute to find that one
// selector has to go, and by one hard guard in PHP(6, 5), which the
// budgeted Solve assumes.
func usedSolver(t *testing.T) *sat.Solver {
	t.Helper()
	s := sat.New()
	var stream []sat.Lit
	next := 0
	fresh := func() sat.Lit { next++; return sat.MkLit(sat.Var(next-1), false) }
	// php appends PHP(holes+1, holes) with pigeon p's at-least-one clause
	// guarded by guard(p).
	php := func(holes int, guard func(p int) sat.Lit) {
		x := make([][]sat.Lit, holes+1)
		for p := range x {
			c := []sat.Lit{guard(p).Not()}
			for h := 0; h < holes; h++ {
				x[p] = append(x[p], fresh())
			}
			stream = sat.AppendClause(stream, append(c, x[p]...)...)
		}
		for h := 0; h < holes; h++ {
			for p := range x {
				for q := p + 1; q < len(x); q++ {
					stream = sat.AppendClause(stream, x[p][h].Not(), x[q][h].Not())
				}
			}
		}
	}
	var softs []sat.Lit
	php(4, func(int) sat.Lit { softs = append(softs, fresh()); return softs[len(softs)-1] })
	g := fresh()
	php(5, func(int) sat.Lit { return g })
	s.Load(next, stream)
	s.SetMaxLearned(0)
	s.SetGCWasteFraction(0.01)
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(sat.MkLit(a, false), sat.MkLit(b, false), softs[0].Not())
	s.AddClause(sat.MkLit(a, true), sat.MkLit(b, true), softs[1].Not())
	if st := s.Solve(); st != sat.Sat {
		t.Fatalf("used solver: plain Solve %v, want sat", st)
	}
	if r := maxsat.Solve(s, softs, maxsat.OLL); r.Status != sat.Sat || r.Cost != 1 {
		t.Fatalf("used solver: OLL %+v, want sat at cost 1", r)
	}
	if s.DBReductions == 0 || s.ArenaGCs == 0 {
		t.Fatalf("used solver: %d reductions, %d arena GCs, want both", s.DBReductions, s.ArenaGCs)
	}
	s.Budget = 1
	if st := s.Solve(g); st != sat.Unknown || s.Interrupted() {
		t.Fatalf("used solver: budgeted Solve %v, want unknown by budget", st)
	}
	s.Interrupt()
	return s
}

// loadSeeds are the shapes Load's normalisation must treat exactly as
// AddClause does.
var loadSeeds = [][]byte{
	encodeLoad(3, 0, []int{1}, []int{-1, 2}, []int{-2, 3}),                                                                           // unit clauses that propagate
	encodeLoad(3, 2, []int{1, 1, 2}, []int{2, 3, 3, 2}),                                                                              // duplicate literals
	encodeLoad(3, 2, []int{1, -1}, []int{1, 2, -2, 3}),                                                                               // tautologies
	encodeLoad(4, 3, []int{1}, []int{1, 2, 3}, []int{-1, 2, 3, 4}, []int{-1, 4}),                                                     // satisfied / shortened at level 0
	encodeLoad(2, 1, []int{1}, []int{-1}, []int{1, 2}),                                                                               // early UNSAT by propagation
	encodeLoad(2, 2, []int{1, 2}, []int{}, []int{-1, 2}),                                                                             // early UNSAT by the empty clause
	encodeLoad(6, 6, []int{1, 2, 3}, []int{-1, -2}, []int{-3, 4, 5}, []int{-4, -5, 6}, []int{2, 4, 6}, []int{-2, -4}, []int{-6, -1}), // softs conflict: OLL adds totalizers
	encodeLoad(5, 4, []int{-1, -2, -3, -4}, []int{1, 5}, []int{2, 5}, []int{3, -5}, []int{4, -5}),
	encodeLate(encodeLoad(4, 3, []int{1, 2}, []int{-1, 3}, []int{2, 3, 4}, []int{-2, -3, -4}), 4, // late clauses outgrow exact windows
		[]int{1, 5}, []int{-1, 6}, []int{2, 3, 5}, []int{-2, 4, -6, 5}, []int{-5, -6}, []int{1, -3}, []int{6}),
	encodeLoad(12, 0, pigeonhole(3)...), // a real search: conflicts, long learnt clauses
	// The boundaries of Load's binary and ternary paths: one variable
	// twice in a binary; a ternary with a repeated or complementary
	// literal in each pair of positions; a level-0 fact in each position
	// of a ternary, satisfying or shortening it, right after the unit
	// that assigns it and later on.
	encodeLoad(3, 2, []int{2, 2}, []int{-3, -3}, []int{1, 2}, []int{-1, 3}),
	encodeLoad(4, 3, []int{1, 1, 2}, []int{2, 3, 3}, []int{4, 1, 4}, []int{1, 2, -1}, []int{-2, 3, 2}, []int{-3, 4, 3}, []int{-1, -2, 4}),
	encodeLoad(5, 3, []int{3}, []int{-3, 1, 2}, []int{1, -3, 4}, []int{2, 4, -3}, []int{3, 4, 5}, []int{1, 2, 4}, []int{-5}, []int{5, -1, -2}, []int{-1, 5, 3}),
}

// pigeonhole returns PHP(holes+1, holes) in DIMACS form: pigeon p in hole
// h is variable p*holes+h+1.
func pigeonhole(holes int) [][]int {
	x := func(p, h int) int { return p*holes + h + 1 }
	var clauses [][]int
	for p := 0; p <= holes; p++ {
		var c []int
		for h := 0; h < holes; h++ {
			c = append(c, x(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p <= holes; p++ {
			for q := p + 1; q <= holes; q++ {
				clauses = append(clauses, []int{-x(p, h), -x(q, h)})
			}
		}
	}
	return clauses
}

func TestLoadSeeds(t *testing.T) {
	var totalizerVars int64
	late := 0
	for _, data := range loadSeeds {
		in := decodeLoad(data)
		late += len(in.late)
		totalizerVars += checkLoad(t, in)
	}
	if totalizerVars == 0 {
		t.Error("no seed made OLL extend a loaded solver with totalizer variables")
	}
	if late == 0 {
		t.Error("no seed adds clauses after the load")
	}
}

// TestLoadMatchesSequential is the property test: random mixed-width
// clause sets, dense enough that units, level-0 simplification and UNSAT
// all occur.
func TestLoadMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 400; i++ {
		in := loadInput{nVars: 2 + rng.Intn(30)}
		for v, k := 0, rng.Intn(in.nVars+1); v < k; v++ {
			in.softs = append(in.softs, sat.MkLit(sat.Var(v), rng.Intn(2) == 0))
		}
		for c := rng.Intn(5 * in.nVars); c > 0; c-- {
			clause := make([]sat.Lit, rng.Intn(5))
			for j := range clause {
				clause[j] = sat.MkLit(sat.Var(rng.Intn(in.nVars)), rng.Intn(2) == 0)
			}
			in.clauses = append(in.clauses, clause)
		}
		checkLoad(t, in)
	}
}

// TestLoadStateMatchesSequential runs checkLoad's state comparison — the
// one the seeds, the random cases above and FuzzLoad go through — on
// streams with an encoder's clause mix (85 % binaries, 1 % units that
// satisfy and shorten other clauses, width 3 and 4 for the rest), at
// sizes where most windows hold several entries, with late clauses over
// the loaded variables.
func TestLoadStateMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := loadInput{nVars: 50 << seed}
		in.clauses = clausesOf(sat.DCShapedStream(rng, in.nVars, 5*in.nVars))
		in.late = clausesOf(sat.DCShapedStream(rng, in.nVars, in.nVars/5))
		for v := 0; v < in.nVars; v += 7 {
			in.softs = append(in.softs, sat.MkLit(sat.Var(v), rng.Intn(2) == 0))
		}
		checkLoad(t, in)
	}
}

// clausesOf splits a Load stream back into its clauses.
func clausesOf(stream []sat.Lit) [][]sat.Lit {
	var clauses [][]sat.Lit
	for i := 0; i < len(stream); i += 1 + int(stream[i]) {
		clauses = append(clauses, stream[i+1:i+1+int(stream[i])])
	}
	return clauses
}

func FuzzLoad(f *testing.F) {
	for _, data := range loadSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, decodeLoad(data))
	})
}
