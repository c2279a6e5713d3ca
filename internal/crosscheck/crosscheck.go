// Package crosscheck is the differential-testing subsystem: independent
// oracles that re-derive, by brute force or by simulation, results the
// production stack computes symbolically, and compare the two.
//
// Three oracles are provided, each driven by a single int64 seed so that
// every failure is reproducible from one number:
//
//   - CheckSAT: random small CNF instances solved by the CDCL engine
//     (internal/smt/sat) versus exhaustive enumeration, including a DIMACS
//     print/parse round trip and UNSAT-core sanity (the core must itself
//     be unsatisfiable).
//   - CheckMaxSAT: random weighted partial MaxSAT instances where both
//     exact algorithms (OLL and the linear-descent reference) must report
//     the exhaustive-search optimum, through a WCNF round trip.
//   - CheckRepair: an end-to-end repair oracle — generate a fat-tree
//     workload, break it, repair it with cpr.Repair, replay the recorded
//     patch onto an independent copy of the broken configurations, and
//     verify every policy by hop-by-hop simulation under bounded link
//     failures, plus a patch-minimality spot check.
//
// The oracles double as deterministic seeded tests and native go-fuzz
// targets (crosscheck_test.go), and cmd/cprfuzz drives long randomized
// campaigns over them.
package crosscheck

import "fmt"

// Divergence is a failed cross-check: the oracle and the production code
// disagreed (or an internal invariant broke while checking). It carries
// reproduction material for cmd/cprfuzz to write to disk.
type Divergence struct {
	// Oracle names the check that failed: "sat", "maxsat", or "repair".
	Oracle string
	// Seed reproduces the failure deterministically.
	Seed int64
	// Detail describes the disagreement.
	Detail string
	// Files holds reproducer artifacts by file name (DIMACS instances,
	// broken configurations, the policy specification).
	Files map[string]string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("crosscheck(%s, seed %d): %s", d.Oracle, d.Seed, d.Detail)
}

// divf builds a Divergence with a formatted detail message.
func divf(oracle string, seed int64, format string, args ...interface{}) *Divergence {
	return &Divergence{Oracle: oracle, Seed: seed, Detail: fmt.Sprintf(format, args...)}
}
