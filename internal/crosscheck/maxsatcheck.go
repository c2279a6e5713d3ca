package crosscheck

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/smt/dimacs"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

// genWCNF draws a random weighted partial MaxSAT instance: a handful of
// hard clauses (occasionally unsatisfiable on purpose) plus weighted soft
// clauses of width 1..2.
func genWCNF(rng *rand.Rand) *dimacs.Problem {
	nVars := 3 + rng.Intn(6) // 3..8
	p := &dimacs.Problem{NumVars: nVars}
	nHard := rng.Intn(2 * nVars)
	for i := 0; i < nHard; i++ {
		p.Hard = append(p.Hard, randClause(rng, nVars, 1+rng.Intn(3)))
	}
	nSoft := 1 + rng.Intn(2*nVars)
	for i := 0; i < nSoft; i++ {
		p.Soft = append(p.Soft, randClause(rng, nVars, 1+rng.Intn(2)))
		p.Weights = append(p.Weights, 1+rng.Intn(4))
	}
	return p
}

func randClause(rng *rand.Rand, nVars, width int) []sat.Lit {
	seen := map[sat.Var]bool{}
	var clause []sat.Lit
	for len(clause) < width {
		v := sat.Var(rng.Intn(nVars))
		if seen[v] {
			continue
		}
		seen[v] = true
		clause = append(clause, sat.MkLit(v, rng.Intn(2) == 1))
	}
	return clause
}

// bruteMaxSAT exhaustively finds the minimum violated soft weight over
// models of the hard clauses. ok is false when the hard clauses are
// unsatisfiable.
func bruteMaxSAT(p *dimacs.Problem) (best int, ok bool) {
	for model := uint32(0); model < 1<<uint(p.NumVars); model++ {
		sat := true
		for _, c := range p.Hard {
			if !satisfies(c, model) {
				sat = false
				break
			}
		}
		if !sat {
			continue
		}
		cost := 0
		for i, c := range p.Soft {
			if !satisfies(c, model) {
				cost += p.Weights[i]
			}
		}
		if !ok || cost < best {
			best, ok = cost, true
		}
	}
	return best, ok
}

// checkWCNF cross-checks one instance against both exact algorithms
// and through a WCNF round trip; it returns the first
// divergence, or "".
func checkWCNF(p *dimacs.Problem) string {
	wantCost, wantSat := bruteMaxSAT(p)
	for _, algo := range []maxsat.Algorithm{maxsat.LinearDescent, maxsat.OLL} {
		s, selectors := p.Load()
		res := maxsat.SolveWeighted(s, selectors, p.Weights, algo, nil)
		if !wantSat {
			if res.Status != sat.Unsat {
				return fmt.Sprintf("%v: status %v on hard-unsat instance", algo, res.Status)
			}
			continue
		}
		if res.Status != sat.Sat {
			return fmt.Sprintf("%v: status %v, want Sat", algo, res.Status)
		}
		if res.Cost != wantCost {
			return fmt.Sprintf("%v: cost %d, brute-force optimum %d", algo, res.Cost, wantCost)
		}
		// Independent model audit: the optimal model must satisfy every
		// hard clause and violate exactly Cost worth of soft clauses.
		var model uint32
		for v := 0; v < p.NumVars; v++ {
			if s.Value(sat.Var(v)) {
				model |= 1 << uint(v)
			}
		}
		for i, c := range p.Hard {
			if !satisfies(c, model) {
				return fmt.Sprintf("%v: optimal model violates hard clause %d", algo, i)
			}
		}
		got := 0
		for i, c := range p.Soft {
			if !satisfies(c, model) {
				got += p.Weights[i]
			}
		}
		if got != res.Cost {
			return fmt.Sprintf("%v: model violates weight %d, reported cost %d", algo, got, res.Cost)
		}
	}

	// WCNF round trip: print, re-parse, re-solve, same optimum.
	var buf bytes.Buffer
	if err := p.Print(&buf); err != nil {
		return fmt.Sprintf("wcnf print: %v", err)
	}
	p2, err := dimacs.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Sprintf("wcnf re-parse: %v", err)
	}
	if p2.NumVars != p.NumVars || len(p2.Hard) != len(p.Hard) || len(p2.Soft) != len(p.Soft) {
		return fmt.Sprintf("wcnf round trip changed shape: %d/%d/%d, want %d/%d/%d",
			p2.NumVars, len(p2.Hard), len(p2.Soft), p.NumVars, len(p.Hard), len(p.Soft))
	}
	s2, sel2 := p2.Load()
	res2 := maxsat.SolveWeighted(s2, sel2, p2.Weights, maxsat.LinearDescent, nil)
	if !wantSat {
		if res2.Status != sat.Unsat {
			return fmt.Sprintf("round-tripped instance: status %v on hard-unsat instance", res2.Status)
		}
	} else if res2.Status != sat.Sat || res2.Cost != wantCost {
		return fmt.Sprintf("round-tripped instance: status %v cost %d, want Sat cost %d", res2.Status, res2.Cost, wantCost)
	}
	return ""
}

// minimizeWCNF greedily drops hard and soft clauses while the instance
// keeps failing.
func minimizeWCNF(p *dimacs.Problem) *dimacs.Problem {
	cur := &dimacs.Problem{NumVars: p.NumVars}
	cur.Hard = append(cur.Hard, p.Hard...)
	cur.Soft = append(cur.Soft, p.Soft...)
	cur.Weights = append(cur.Weights, p.Weights...)
	for again := true; again; {
		again = false
		for i := 0; i < len(cur.Hard); i++ {
			cand := &dimacs.Problem{NumVars: cur.NumVars, Soft: cur.Soft, Weights: cur.Weights}
			cand.Hard = append(append([][]sat.Lit{}, cur.Hard[:i]...), cur.Hard[i+1:]...)
			if checkWCNF(cand) != "" {
				cur = cand
				again = true
				i--
			}
		}
		for i := 0; i < len(cur.Soft); i++ {
			cand := &dimacs.Problem{NumVars: cur.NumVars, Hard: cur.Hard}
			cand.Soft = append(append([][]sat.Lit{}, cur.Soft[:i]...), cur.Soft[i+1:]...)
			cand.Weights = append(append([]int{}, cur.Weights[:i]...), cur.Weights[i+1:]...)
			if checkWCNF(cand) != "" {
				cur = cand
				again = true
				i--
			}
		}
	}
	return cur
}

// genLargeWCNF draws a weighted instance too big for brute-force model
// enumeration but where exact engines can still be cross-checked against
// each other: 16..27 variables, clause width up to 3.
func genLargeWCNF(rng *rand.Rand) *dimacs.Problem {
	nVars := 16 + rng.Intn(12)
	p := &dimacs.Problem{NumVars: nVars}
	nHard := rng.Intn(3 * nVars)
	for i := 0; i < nHard; i++ {
		p.Hard = append(p.Hard, randClause(rng, nVars, 1+rng.Intn(3)))
	}
	nSoft := 1 + rng.Intn(2*nVars)
	for i := 0; i < nSoft; i++ {
		p.Soft = append(p.Soft, randClause(rng, nVars, 1+rng.Intn(2)))
		p.Weights = append(p.Weights, 1+rng.Intn(4))
	}
	return p
}

// checkEqualCost solves one instance with linear descent and OLL and
// demands an identical status and optimum — the scalable half of the
// oracle, used where brute force cannot reach.
func checkEqualCost(p *dimacs.Problem) string {
	s1, sel1 := p.Load()
	ref := maxsat.SolveWeighted(s1, sel1, p.Weights, maxsat.LinearDescent, nil)
	s2, sel2 := p.Load()
	got := maxsat.SolveWeighted(s2, sel2, p.Weights, maxsat.OLL, nil)
	if ref.Status != got.Status {
		return fmt.Sprintf("oll status %v, linear %v", got.Status, ref.Status)
	}
	if ref.Status == sat.Sat && ref.Cost != got.Cost {
		return fmt.Sprintf("oll cost %d, linear %d", got.Cost, ref.Cost)
	}
	return ""
}

// checkScratchReuse solves each instance with OLL twice, on a new solver
// each time: with a fresh scratch, and with sc, one scratch the instances
// share in turn. Reuse must not show: the Result and the solver counters
// are the same either way.
func checkScratchReuse(sc *maxsat.Scratch, ps ...*dimacs.Problem) string {
	for i, p := range ps {
		s1, sel1 := p.Load()
		want := maxsat.SolveWeighted(s1, sel1, p.Weights, maxsat.OLL, nil)
		s2, sel2 := p.Load()
		got := maxsat.SolveWeighted(s2, sel2, p.Weights, maxsat.OLL, sc)
		if got != want {
			return fmt.Sprintf("instance %d on a reused scratch: %+v, fresh %+v", i, got, want)
		}
		if a, b := s2.Snapshot(), s1.Snapshot(); a != b {
			return fmt.Sprintf("instance %d on a reused scratch: solver counters %+v, fresh %+v", i, a, b)
		}
	}
	return ""
}

// CheckMaxSAT runs the MaxSAT optimality oracle for one seed: a small
// instance checked against the brute-force optimum with every engine,
// then a larger instance where OLL must match linear descent's optimum
// exactly, then the small, the large and the small one again through one
// OLL scratch, which must change nothing. A non-nil error is a
// *Divergence carrying a minimized WCNF reproducer (the instances, for
// the scratch leg).
func CheckMaxSAT(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	p := genWCNF(rng)
	if detail := checkWCNF(p); detail != "" {
		min := minimizeWCNF(p)
		var buf bytes.Buffer
		_ = min.Print(&buf)
		d := divf("maxsat", seed, "%s (minimized to %d hard, %d soft)", detail, len(min.Hard), len(min.Soft))
		d.Files = map[string]string{"instance.wcnf": buf.String()}
		return d
	}
	big := genLargeWCNF(rng)
	if detail := checkEqualCost(big); detail != "" {
		var buf bytes.Buffer
		_ = big.Print(&buf)
		d := divf("maxsat", seed, "large instance: %s (%d vars, %d hard, %d soft)",
			detail, big.NumVars, len(big.Hard), len(big.Soft))
		d.Files = map[string]string{"instance.wcnf": buf.String()}
		return d
	}
	if detail := checkScratchReuse(new(maxsat.Scratch), p, big, p); detail != "" {
		var small, large bytes.Buffer
		_ = p.Print(&small)
		_ = big.Print(&large)
		d := divf("maxsat", seed, "%s", detail)
		d.Files = map[string]string{"instance0.wcnf": small.String(), "instance1.wcnf": large.String()}
		return d
	}
	return nil
}
