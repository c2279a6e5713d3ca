package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/harc"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

// BenchmarkEncodeDC256Quotient times the encoder alone on dc-256's
// quotient sub-problems, the encode that owns most of that workload's
// op: each iteration encodes all of them, one after another, on one warm
// worker, as a worker does — on its recycled solver, up to and including
// the load — so ns/clause is the cost of writing and loading one clause,
// the profiling entry point for the constraint-building layer.
func BenchmarkEncodeDC256Quotient(b *testing.B) {
	qs, opts := dc256Quotients(b)
	w := newWorker()
	encode := func(q quotientProblem) {
		s := w.solver()
		enc := newEncoder(w, s, q.tb, q.orig, q.pr.tcs, q.pr.policies, q.pr.freeze, opts)
		if err := enc.encode(context.Background()); err != nil {
			b.Fatal(err)
		}
		w.spare = s
	}
	clauses := 0
	for _, q := range qs { // warm the worker, and count
		encode(q)
		for _, c := range w.b.Stream() {
			for k := 0; k < len(c); k += 1 + int(c[k]) {
				clauses++
			}
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, q := range qs {
			encode(q)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clauses), "ns/clause")
}

// BenchmarkLoadDC256Quotient times the load alone on the streams
// BenchmarkEncodeDC256Quotient writes: each quotient sub-problem is
// encoded once, untimed, and every iteration loads all of them, one after
// another, into one reset solver, as a worker's solver takes them. Its
// ns/clause is the load's share of the encode benchmark's; the rest is
// the writers'.
func BenchmarkLoadDC256Quotient(b *testing.B) {
	qs, opts := dc256Quotients(b)
	w := newWorker()
	type cnf struct {
		nVars  int
		chunks [][]sat.Lit
	}
	cnfs := make([]cnf, len(qs))
	clauses := 0
	for i, q := range qs {
		enc := newEncoder(w, sat.New(), q.tb, q.orig, q.pr.tcs, q.pr.policies, q.pr.freeze, opts)
		if err := enc.encode(context.Background()); err != nil {
			b.Fatal(err)
		}
		cnfs[i].nVars = w.b.NumVars()
		for _, c := range w.b.Stream() {
			cnfs[i].chunks = append(cnfs[i].chunks, slices.Clone(c))
			for k := 0; k < len(c); k += 1 + int(c[k]) {
				clauses++
			}
		}
	}
	s := sat.New()
	load := func() {
		for _, c := range cnfs {
			s.Reset()
			if !s.Load(c.nVars, c.chunks...) {
				b.Fatal("a quotient sub-problem's CNF is unsatisfiable at level 0")
			}
		}
	}
	load() // size the solver's arrays
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		load()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clauses), "ns/clause")
}

// BenchmarkSolvePC4Merged times the solver alone on the fattree-pc4
// workload's pc4-merged sub-problem, nearly all of that workload's op:
// each iteration loads the encoder's formula into a new solver, seeds
// the encoder's phases and runs the MaxSAT descent (the formula is
// encoded once, untimed). The search is the same every iteration, so
// ns/propagation is the cost of the CDCL loop's steps — the profiling
// entry point for solver bookkeeping.
func BenchmarkSolvePC4Merged(b *testing.B) {
	ft := pc4FatTree(b)
	h, opts := ft.Harc(), DefaultOptions()
	problems, err := buildProblems(h, ft.Policies, opts)
	if err != nil {
		b.Fatal(err)
	}
	i := slices.IndexFunc(problems, func(pr *problem) bool { return pr.label == "pc4-merged" })
	if i < 0 {
		b.Fatal("fattree-pc4 has no pc4-merged sub-problem")
	}
	pr, w := problems[i], newWorker()
	sc := w.b
	enc := newEncoder(w, sat.New(), newTables(h), harc.StateOf(h), pr.tcs, pr.policies, pr.freeze, opts)
	if err := enc.encode(context.Background()); err != nil {
		b.Fatal(err)
	}
	nVars, stream := sc.NumVars(), slices.Concat(sc.Stream()...)
	var props int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		enc.s = sat.New()
		enc.s.Load(nVars, stream)
		enc.seedPhases()
		if res := maxsat.SolveWeighted(enc.s, enc.softs, enc.weights, opts.Algorithm, nil); res.Status != sat.Sat {
			b.Fatalf("pc4-merged: %v", res.Status)
		}
		props += enc.s.Propagations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(props), "ns/propagation")
}
