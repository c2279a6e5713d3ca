// Package dimacs parses and prints the standard CNF and WCNF exchange
// formats, exposing the solver substrate to standard SAT/MaxSAT
// instances (useful for validating the engine against external
// benchmarks, and for debugging CPR encodings dumped to disk).
package dimacs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/smt/sat"
)

// Problem is a parsed (W)CNF instance: hard clauses plus optional
// weighted soft clauses (weight 0 means the clause is hard).
type Problem struct {
	NumVars int
	Hard    [][]sat.Lit
	Soft    [][]sat.Lit
	Weights []int
}

// Parse reads a DIMACS "p cnf" or "p wcnf" instance. For wcnf, clauses
// with the top weight are hard; others soft.
func Parse(r io.Reader) (*Problem, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	p := &Problem{}
	wcnf := false
	top := -1
	seenHeader := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				return nil, fmt.Errorf("dimacs: line %d: malformed problem line", lineNo)
			}
			switch fields[1] {
			case "cnf":
			case "wcnf":
				wcnf = true
				if len(fields) >= 5 {
					t, err := strconv.Atoi(fields[4])
					if err != nil {
						return nil, fmt.Errorf("dimacs: line %d: bad top weight", lineNo)
					}
					top = t
				}
			default:
				return nil, fmt.Errorf("dimacs: line %d: unknown format %q", lineNo, fields[1])
			}
			var err error
			p.NumVars, err = strconv.Atoi(fields[2])
			if err != nil || p.NumVars < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad variable count", lineNo)
			}
			seenHeader = true
			continue
		}
		if !seenHeader {
			return nil, fmt.Errorf("dimacs: line %d: clause before problem line", lineNo)
		}
		fields := strings.Fields(line)
		weight := 0
		start := 0
		if wcnf {
			w, err := strconv.Atoi(fields[0])
			if err != nil || w < 0 {
				return nil, fmt.Errorf("dimacs: line %d: bad clause weight", lineNo)
			}
			weight = w
			start = 1
		}
		var clause []sat.Lit
		terminated := false
		for _, f := range fields[start:] {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("dimacs: line %d: bad literal %q", lineNo, f)
			}
			if v == 0 {
				terminated = true
				break
			}
			abs := v
			if abs < 0 {
				abs = -abs
			}
			if abs > p.NumVars {
				return nil, fmt.Errorf("dimacs: line %d: literal %d exceeds declared %d variables", lineNo, v, p.NumVars)
			}
			clause = append(clause, sat.MkLit(sat.Var(abs-1), v < 0))
		}
		if !terminated {
			return nil, fmt.Errorf("dimacs: line %d: clause not 0-terminated", lineNo)
		}
		if wcnf && (top < 0 || weight < top) && weight > 0 {
			p.Soft = append(p.Soft, clause)
			p.Weights = append(p.Weights, weight)
		} else {
			p.Hard = append(p.Hard, clause)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenHeader {
		return nil, fmt.Errorf("dimacs: missing problem line")
	}
	return p, nil
}

// Load allocates variables and adds the hard clauses to a fresh solver,
// returning it with soft-clause selector literals: each soft clause C_i
// becomes (C_i ∨ ¬s_i) and the returned lits are the s_i (true ⇔ the
// clause must hold), ready for maxsat.SolveWeighted.
func (p *Problem) Load() (*sat.Solver, []sat.Lit) {
	var stream []sat.Lit
	for _, c := range p.Hard {
		stream = sat.AppendClause(stream, c...)
	}
	selectors := make([]sat.Lit, len(p.Soft))
	var clause []sat.Lit
	for i, c := range p.Soft {
		sel := sat.MkLit(sat.Var(p.NumVars+i), false)
		clause = append(append(clause[:0], c...), sel.Not())
		stream = sat.AppendClause(stream, clause...)
		selectors[i] = sel
	}
	// The reverse binding (clause ⇒ sel) is unnecessary: minimizing
	// violated selectors sets sel true exactly when the clause holds.
	s := sat.New()
	s.Load(p.NumVars+len(p.Soft), stream)
	return s, selectors
}

// Print renders the problem back in DIMACS form (wcnf when softs exist).
func (p *Problem) Print(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeClause := func(prefix string, c []sat.Lit) {
		if prefix != "" {
			fmt.Fprint(bw, prefix, " ")
		}
		for _, l := range c {
			v := int(l.Var()) + 1
			if l.Neg() {
				v = -v
			}
			fmt.Fprint(bw, v, " ")
		}
		fmt.Fprintln(bw, 0)
	}
	if len(p.Soft) == 0 {
		fmt.Fprintf(bw, "p cnf %d %d\n", p.NumVars, len(p.Hard))
		for _, c := range p.Hard {
			writeClause("", c)
		}
		return bw.Flush()
	}
	top := 1
	for _, wgt := range p.Weights {
		top += wgt
	}
	fmt.Fprintf(bw, "p wcnf %d %d %d\n", p.NumVars, len(p.Hard)+len(p.Soft), top)
	for _, c := range p.Hard {
		writeClause(strconv.Itoa(top), c)
	}
	for i, c := range p.Soft {
		writeClause(strconv.Itoa(p.Weights[i]), c)
	}
	return bw.Flush()
}
