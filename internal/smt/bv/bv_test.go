package bv

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/smt/formula"
	"repro/internal/smt/sat"
)

// bench is one pool with its builder; solve loads the builder's CNF into
// a new solver and returns the model as Value's bit reader.
type bench struct {
	p *formula.Pool
	b *formula.Builder
}

func newBench() bench {
	p := formula.NewPool()
	return bench{p, formula.NewBuilder(p)}
}

// solve numbers the formulas the test reads — a Tseitin literal equals
// its formula in every model — before it loads the CNF, so the reader
// answers for those formulas only.
func (x bench) solve(t *testing.T, want sat.Status, read ...formula.F) func(formula.F) bool {
	t.Helper()
	lits := make(map[formula.F]sat.Lit, len(read))
	for _, f := range read {
		lits[f] = x.b.Lit(f)
	}
	s := sat.New()
	s.Load(x.b.NumVars(), x.b.Stream()...)
	if got := s.Solve(); got != want {
		t.Fatalf("status %v, want %v", got, want)
	}
	return func(f formula.F) bool {
		l, ok := lits[f]
		if !ok {
			t.Fatalf("%s was not numbered before the solve", x.p.String(f))
		}
		return s.ValueLit(l)
	}
}

func TestConstRoundTrip(t *testing.T) {
	x := newBench()
	c := Const(13, 5)
	if got := Value(c, x.solve(t, sat.Sat, c...)); got != 13 {
		t.Errorf("Value = %d, want 13", got)
	}
}

func TestConstOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for oversized constant")
		}
	}()
	Const(16, 4)
}

func TestAddConstants(t *testing.T) {
	for _, tc := range []struct{ a, b uint64 }{{0, 0}, {1, 1}, {7, 9}, {15, 15}, {5, 0}} {
		x := newBench()
		sum := Add(x.p, Const(tc.a, 4), Const(tc.b, 4))
		if got := Value(sum, x.solve(t, sat.Sat, sum...)); got != tc.a+tc.b {
			t.Errorf("%d+%d = %d, want %d", tc.a, tc.b, got, tc.a+tc.b)
		}
	}
}

func TestAddVariables(t *testing.T) {
	x := newBench()
	a, b := Fresh(x.p, 4), Fresh(x.p, 4)
	sum := Add(x.p, a, b)
	AssertEqualConst(x.b, a, 9)
	AssertEqualConst(x.b, b, 8)
	if got := Value(sum, x.solve(t, sat.Sat, sum...)); got != 17 {
		t.Errorf("sum = %d, want 17 (no overflow: width grows)", got)
	}
}

func TestLessAndLessEq(t *testing.T) {
	cases := []struct {
		a, b uint64
		lt   bool
	}{{3, 5, true}, {5, 3, false}, {4, 4, false}, {0, 1, true}, {15, 0, false}}
	for _, tc := range cases {
		x := newBench()
		lt := Less(x.p, Const(tc.a, 4), Const(tc.b, 4))
		le := LessEq(x.p, Const(tc.a, 4), Const(tc.b, 4))
		model := x.solve(t, sat.Sat, lt, le)
		if got := model(lt); got != tc.lt {
			t.Errorf("%d < %d = %v, want %v", tc.a, tc.b, got, tc.lt)
		}
		if model(le) != (tc.a <= tc.b) {
			t.Errorf("%d <= %d = %v", tc.a, tc.b, model(le))
		}
	}
}

func TestEqualMixedWidths(t *testing.T) {
	x := newBench()
	f := Equal(x.p, Const(5, 3), Const(5, 6))
	g := Equal(x.p, Const(5, 3), Const(13, 6))
	model := x.solve(t, sat.Sat, f, g)
	if !model(f) {
		t.Error("5 == 5 across widths should hold")
	}
	if model(g) {
		t.Error("5 == 13 should not hold")
	}
}

func TestNonZero(t *testing.T) {
	x := newBench()
	v := Fresh(x.p, 3)
	x.b.Assert(NonZero(x.p, v))
	x.b.Assert(formula.Not(v[1]))
	x.b.Assert(formula.Not(v[2]))
	if got := Value(v, x.solve(t, sat.Sat, v...)); got != 1 {
		t.Errorf("v = %d, want 1", got)
	}
}

func TestSolverFindsAddends(t *testing.T) {
	// a + b == 10, a < b, a > 0: solver must find a concrete split.
	x := newBench()
	a, b := Fresh(x.p, 4), Fresh(x.p, 4)
	x.b.Assert(Equal(x.p, Add(x.p, a, b), Const(10, 5)))
	x.b.Assert(Less(x.p, a, b))
	x.b.Assert(NonZero(x.p, a))
	model := x.solve(t, sat.Sat, slices.Concat(a, b)...)
	av, bv := Value(a, model), Value(b, model)
	if av+bv != 10 || av >= bv || av == 0 {
		t.Errorf("a=%d b=%d violates constraints", av, bv)
	}
}

// Property: addition and comparison agree with machine arithmetic.
func TestDifferentialArithmetic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := uint64(r.Intn(256))
		b := uint64(r.Intn(256))
		x := newBench()
		va, vb := Fresh(x.p, 8), Fresh(x.p, 8)
		AssertEqualConst(x.b, va, a)
		AssertEqualConst(x.b, vb, b)
		sum := Add(x.p, va, vb)
		lt, le, eq := Less(x.p, va, vb), LessEq(x.p, va, vb), Equal(x.p, va, vb)
		model := x.solve(t, sat.Sat, append(slices.Clone(sum), lt, le, eq)...)
		return Value(sum, model) == a+b &&
			model(lt) == (a < b) && model(le) == (a <= b) && model(eq) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAssertEqualConstTooBig(t *testing.T) {
	x := newBench()
	AssertEqualConst(x.b, Fresh(x.p, 3), 9) // does not fit in 3 bits
	x.solve(t, sat.Unsat)
}
