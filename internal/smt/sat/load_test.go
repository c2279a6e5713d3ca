package sat_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

// loadInput is one Load-versus-AddClause differential case: clauses over
// nVars variables, plus unit-weight softs for the MaxSAT leg (OLL's
// totalizers add variables and clauses after the load).
type loadInput struct {
	nVars   int
	clauses [][]sat.Lit
	softs   []sat.Lit
}

// decodeLoad reads a case from fuzz bytes: the variable count, the soft
// count, then one token per byte — a literal, or (the two values past the
// literal range) end of clause. Two terminators in a row make an empty
// clause; repeated and complementary literals arise on their own.
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
	for _, b := range data {
		if x := int(b) % (2*in.nVars + 2); x < 2*in.nVars {
			clause = append(clause, sat.Lit(x))
		} else {
			in.clauses = append(in.clauses, clause)
			clause = []sat.Lit{}
		}
	}
	if len(clause) > 0 {
		in.clauses = append(in.clauses, clause)
	}
	return in
}

// encodeLoad is decodeLoad's inverse for building the seed corpus.
func encodeLoad(nVars, nSofts int, clauses ...[]int) []byte {
	data := []byte{byte(nVars - 1), byte(nSofts)}
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

// checkLoad holds one solver built by NewVar/AddClause calls and one
// built by a single Load to the same observable behaviour: Okay, then
// verdict, counters and model after Solve, then the same again after an
// OLL MaxSAT run has extended both with totalizers. It returns how many
// variables that run added, so callers can tell the leg was exercised.
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
	ld := sat.New()
	if ok := ld.Load(in.nVars, stream); ok != ld.Okay() {
		t.Fatalf("Load returned %v, Okay() = %v", ok, ld.Okay())
	}
	same := func(stage string) {
		t.Helper()
		if seq.Okay() != ld.Okay() || seq.NumVars() != ld.NumVars() {
			t.Fatalf("%s: sequential okay=%v vars=%d, loaded okay=%v vars=%d",
				stage, seq.Okay(), seq.NumVars(), ld.Okay(), ld.NumVars())
		}
		if a, b := seq.Snapshot(), ld.Snapshot(); a != b {
			t.Fatalf("%s: counters differ:\nsequential %+v\nloaded     %+v", stage, a, b)
		}
		if a, b := seq.ModelPhases(), ld.ModelPhases(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: models differ:\nsequential %v\nloaded     %v", stage, a, b)
		}
	}
	same("after load")
	if a, b := seq.Solve(), ld.Solve(); a != b {
		t.Fatalf("Solve: sequential %v, loaded %v", a, b)
	}
	same("after Solve")
	ra := maxsat.Solve(seq, in.softs, maxsat.OLL)
	rb := maxsat.Solve(ld, in.softs, maxsat.OLL)
	if ra.Status != rb.Status || ra.Cost != rb.Cost {
		t.Fatalf("MaxSAT: sequential %v cost %d, loaded %v cost %d", ra.Status, ra.Cost, rb.Status, rb.Cost)
	}
	same("after MaxSAT")
	return seq.Snapshot().TotalizerVars
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
}

func TestLoadSeeds(t *testing.T) {
	var totalizerVars int64
	for _, data := range loadSeeds {
		totalizerVars += checkLoad(t, decodeLoad(data))
	}
	if totalizerVars == 0 {
		t.Error("no seed made OLL extend a loaded solver with totalizer variables")
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

func FuzzLoad(f *testing.F) {
	for _, data := range loadSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoad(t, decodeLoad(data))
	})
}
