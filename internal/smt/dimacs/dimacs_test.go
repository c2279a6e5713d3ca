package dimacs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

func TestParseCNF(t *testing.T) {
	in := `c a comment
p cnf 3 2
1 -2 0
2 3 0
`
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 || len(p.Hard) != 2 || len(p.Soft) != 0 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Hard[0][1] != sat.MkLit(1, true) {
		t.Errorf("literal -2 parsed as %v", p.Hard[0][1])
	}
	s, _ := p.Load()
	if s.Solve() != sat.Sat {
		t.Error("instance is satisfiable")
	}
}

func TestParseWCNF(t *testing.T) {
	in := `p wcnf 2 3 10
10 1 2 0
3 -1 0
1 -2 0
`
	p, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Hard) != 1 || len(p.Soft) != 2 {
		t.Fatalf("hard=%d soft=%d", len(p.Hard), len(p.Soft))
	}
	if p.Weights[0] != 3 || p.Weights[1] != 1 {
		t.Errorf("weights = %v", p.Weights)
	}
	// Optimum: hard (x1 ∨ x2); soft ¬x1 (w3), ¬x2 (w1): set x2 only →
	// violate the weight-1 soft.
	s, sels := p.Load()
	res := maxsat.SolveWeighted(s, sels, p.Weights, maxsat.LinearDescent, nil)
	if res.Status != sat.Sat || res.Cost != 1 {
		t.Errorf("optimum = %+v, want cost 1", res)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1 2 0\n",                // clause before header
		"p cnf x 2\n",            // bad var count
		"p foo 2 2\n",            // unknown format
		"p cnf 2 1\n1 2\n",       // missing terminator
		"p cnf 2 1\n1 5 0\n",     // literal out of range
		"p wcnf 2 1 10\nw 1 0\n", // bad weight
		"p cnf\n",                // short header
		"",                       // no header
		"p cnf 2 1\n1 zz 0\n",    // bad literal
		"p wcnf 2 1\n-3 1 0\n",   // negative weight
	}
	for _, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := &Problem{NumVars: 3 + r.Intn(5)}
		for i := 0; i < 2+r.Intn(6); i++ {
			var c []sat.Lit
			for j := 0; j < 1+r.Intn(3); j++ {
				c = append(c, sat.MkLit(sat.Var(r.Intn(p.NumVars)), r.Intn(2) == 0))
			}
			if r.Intn(2) == 0 {
				p.Soft = append(p.Soft, c)
				p.Weights = append(p.Weights, 1+r.Intn(5))
			} else {
				p.Hard = append(p.Hard, c)
			}
		}
		var sb strings.Builder
		if err := p.Print(&sb); err != nil {
			return false
		}
		q, err := Parse(strings.NewReader(sb.String()))
		if err != nil {
			t.Logf("seed %d: reparse: %v\n%s", seed, err, sb.String())
			return false
		}
		if q.NumVars != p.NumVars || len(q.Hard) != len(p.Hard) || len(q.Soft) != len(p.Soft) {
			t.Logf("seed %d: shape mismatch", seed)
			return false
		}
		for i := range p.Weights {
			if q.Weights[i] != p.Weights[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWCNFOptimumMatchesBrute checks the whole Load+SolveWeighted path
// against brute force on random weighted instances.
func TestWCNFOptimumMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nvars := 3 + r.Intn(4)
		p := &Problem{NumVars: nvars}
		for i := 0; i < 3+r.Intn(6); i++ {
			var c []sat.Lit
			for j := 0; j < 1+r.Intn(3); j++ {
				c = append(c, sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0))
			}
			if r.Intn(3) > 0 {
				p.Soft = append(p.Soft, c)
				p.Weights = append(p.Weights, 1+r.Intn(3))
			} else {
				p.Hard = append(p.Hard, c)
			}
		}
		want, feasible := bruteOptimum(p)
		s, sels := p.Load()
		res := maxsat.SolveWeighted(s, sels, p.Weights, maxsat.OLL, nil)
		if !feasible {
			return res.Status == sat.Unsat
		}
		if res.Status != sat.Sat || res.Cost != want {
			t.Logf("seed %d: got %+v, want %d", seed, res, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func bruteOptimum(p *Problem) (int, bool) {
	best := -1
	for mask := 0; mask < 1<<p.NumVars; mask++ {
		val := func(l sat.Lit) bool {
			bit := mask&(1<<uint(l.Var())) != 0
			if l.Neg() {
				return !bit
			}
			return bit
		}
		satisfied := func(c []sat.Lit) bool {
			for _, l := range c {
				if val(l) {
					return true
				}
			}
			return false
		}
		ok := true
		for _, c := range p.Hard {
			if !satisfied(c) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		cost := 0
		for i, c := range p.Soft {
			if !satisfied(c) {
				cost += p.Weights[i]
			}
		}
		if best == -1 || cost < best {
			best = cost
		}
	}
	return best, best != -1
}
