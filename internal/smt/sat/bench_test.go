package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// Microbenchmarks for the solver core, for profiling while working on it;
// CI's test job runs each once so that they keep compiling and running,
// and claims go through ./bench. The first three build with AddClause
// only and learn heavily — conflict-heavy search (pigeonhole),
// incremental assumption solving (the MaxSMT access pattern),
// learned-clause management with aggressive reduceDB/GC settings — and
// the fourth is the ingest of an encoder-sized CNF through Load.

// randomCNF adds a width-3 instance near the satisfiability threshold.
func randomCNF(s *Solver, rng *rand.Rand, nVars, nClauses int) {
	vars := make([]Var, nVars)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	for i := 0; i < nClauses; i++ {
		var c [3]Lit
		for j := 0; j < 3; {
			v := vars[rng.Intn(nVars)]
			dup := false
			for k := 0; k < j; k++ {
				if c[k].Var() == v {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			c[j] = MkLit(v, rng.Intn(2) == 1)
			j++
		}
		s.AddClause(c[0], c[1], c[2])
	}
}

// BenchmarkSATPigeonhole is conflict-heavy UNSAT search: clause learning,
// analysis, and watcher traversal dominate.
func BenchmarkSATPigeonhole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := pigeonhole(7)
		if s.Solve() != Unsat {
			b.Fatal("PHP(7) must be unsat")
		}
	}
}

// BenchmarkSATIncrementalAssumptions mirrors how maxsat drives the
// solver: one clause database, many solves under shifting assumptions.
func BenchmarkSATIncrementalAssumptions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(42))
		s := New()
		randomCNF(s, rng, 120, 500)
		for round := 0; round < 30; round++ {
			asm := make([]Lit, 8)
			for j := range asm {
				asm[j] = MkLit(Var(rng.Intn(120)), rng.Intn(2) == 1)
			}
			if s.Solve(asm...) == Unknown {
				b.Fatal("unexpected Unknown")
			}
		}
	}
}

// BenchmarkSATReduceAndGC forces constant learned-clause deletion and
// arena compaction, measuring reduceDB, watcher cleaning, and gcArena.
func BenchmarkSATReduceAndGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := pigeonhole(6)
		s.SetMaxLearned(20)
		s.SetGCWasteFraction(0.05)
		if s.Solve() != Unsat {
			b.Fatal("PHP(6) must be unsat")
		}
		if s.ArenaGCs == 0 {
			b.Fatal("benchmark no longer exercises the GC path")
		}
	}
}

// dcShapedStream generates a Load stream with the clause mix of a dc-256
// quotient sub-problem's CNF: 85 % binary clauses, 1 % units, the rest
// width 3 and 4, each over variables numbered close to the clause's own
// place in the stream, as definitions emitted in order are. One hidden
// assignment satisfies every clause, so a load never ends early. Level-0
// propagation stays as local as it is in the encoder's output: units fix
// only the last fiftieth of the variables, one literal in a hundred
// elsewhere mentions one of those, a clause holds at most one false
// literal of them (none if it is binary) and repeats no other variable —
// so a fact satisfies clauses or shortens them by one literal and never
// sets off a cascade through the binaries.
func dcShapedStream(rng *rand.Rand, nVars, nClauses int) []Lit {
	hidden := make([]bool, nVars)
	for v := range hidden {
		hidden[v] = rng.Intn(2) == 0
	}
	fixed := max(nVars/50, 1)
	free := nVars - fixed
	lit := func(v int, holds bool) Lit { return MkLit(Var(v), hidden[v] != holds) }
	stream := make([]Lit, 0, 4*nClauses)
	var c []Lit
	for i := 0; i < nClauses; i++ {
		width := 2
		switch r := rng.Intn(100); {
		case r < 1:
			width = 1
		case r >= 93:
			width = 4
		case r >= 86:
			width = 3
		}
		c = c[:0]
		witness := rng.Intn(width) // the position the hidden assignment satisfies
		shortened := width == 2    // no (further) false literal of a fixed variable
		for k := 0; k < width; k++ {
			holds := k == witness || rng.Intn(2) == 0
			switch {
			case width == 1:
				c = append(c, lit(nVars-1-rng.Intn(fixed), true))
			case rng.Intn(100) == 0:
				c = append(c, lit(nVars-1-rng.Intn(fixed), holds || shortened))
				shortened = shortened || !holds
			default:
				v := Var((i*free/nClauses + rng.Intn(64)) % free)
				for slices.ContainsFunc(c, func(l Lit) bool { return l.Var() == v }) {
					v = (v + 1) % Var(free) // a repeated variable would make a unit
				}
				c = append(c, lit(int(v), holds))
			}
		}
		stream = AppendClause(stream, c...)
	}
	return stream
}

// BenchmarkSATLoad is the ingest alone: one Load of a stream the size of
// a dc-256 quotient sub-problem (≈ 80 k variables, ≈ 390 k clauses) into
// a new solver.
func BenchmarkSATLoad(b *testing.B) {
	const nVars, nClauses = 80_000, 390_000
	stream := dcShapedStream(rand.New(rand.NewSource(19)), nVars, nClauses)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !New().Load(nVars, stream) {
			b.Fatal("the hidden assignment satisfies the stream")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nClauses, "ns/clause")
}
