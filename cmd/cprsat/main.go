// Command cprsat runs CPR's SAT/MaxSAT engine on standard DIMACS
// instances — useful for validating the solver substrate against
// external benchmarks independent of the network-repair pipeline.
//
// Usage:
//
//	cprsat [-algorithm oll|linear] [-budget N] file.cnf
//	cprsat file.wcnf
//
// CNF instances are decided (SATISFIABLE/UNSATISFIABLE, with a model);
// WCNF instances are optimized (o <cost> and a model), MaxSAT-competition
// style output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/smt/dimacs"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
)

func main() {
	var (
		algoFlag = flag.String("algorithm", "oll", "MaxSAT algorithm: oll (the engine repairs run) or linear (the reference)")
		budget   = flag.Int64("budget", 0, "conflict budget per solve (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *algoFlag, *budget, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cprsat:", err)
		os.Exit(1)
	}
}

func run(path, algoFlag string, budget int64, out *os.File) error {
	var algo maxsat.Algorithm
	switch algoFlag {
	case "oll":
		algo = maxsat.OLL
	case "linear":
		algo = maxsat.LinearDescent
	default:
		return fmt.Errorf("unknown algorithm %q (want oll or linear)", algoFlag)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := dimacs.Parse(f)
	if err != nil {
		return err
	}
	s, selectors := p.Load()
	s.Budget = budget

	if len(p.Soft) == 0 {
		switch s.Solve() {
		case sat.Sat:
			fmt.Fprintln(out, "s SATISFIABLE")
			fmt.Fprintln(out, model(s, p.NumVars))
		case sat.Unsat:
			fmt.Fprintln(out, "s UNSATISFIABLE")
		default:
			fmt.Fprintln(out, "s UNKNOWN")
		}
		return nil
	}
	res := maxsat.SolveWeighted(s, selectors, p.Weights, algo, nil)
	switch res.Status {
	case sat.Sat:
		fmt.Fprintf(out, "o %d\n", res.Cost)
		fmt.Fprintln(out, "s OPTIMUM FOUND")
		fmt.Fprintln(out, model(s, p.NumVars))
	case sat.Unsat:
		fmt.Fprintln(out, "s UNSATISFIABLE")
	default:
		fmt.Fprintln(out, "s UNKNOWN")
	}
	return nil
}

// model renders a "v ..." line over the instance's original variables.
func model(s *sat.Solver, nvars int) string {
	var b strings.Builder
	b.WriteString("v")
	for v := 0; v < nvars; v++ {
		lit := v + 1
		if !s.Value(sat.Var(v)) {
			lit = -lit
		}
		fmt.Fprintf(&b, " %d", lit)
	}
	return b.String()
}
