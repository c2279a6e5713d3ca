// Package crosscheck holds the differential oracles: independent checks
// that re-derive, by brute force or by simulation, results the production
// stack computes symbolically, and compare the two. The package is test
// code only: `go test` runs every oracle, seeded and fuzzed.
//
// Seven oracles are provided, each driven by a single int64 seed so that
// every failure is reproducible from one number:
//
//   - CheckSAT: random small CNF instances solved by the CDCL engine
//     (internal/smt/sat) versus exhaustive enumeration, including a DIMACS
//     print/parse round trip and UNSAT-core sanity (the core must itself
//     be unsatisfiable).
//   - CheckMaxSAT: random weighted partial MaxSAT instances where both
//     exact algorithms (OLL and the linear-descent reference) must report
//     the exhaustive-search optimum, through a WCNF round trip.
//   - CheckArenaGC: one incrementally used solver, tuned to reduce its
//     learned-clause database and compact its clause arena constantly,
//     versus brute force after every solve.
//   - CheckRepair: an end-to-end repair oracle — generate a fat-tree
//     workload, break it, repair it with cpr.Repair, replay the recorded
//     patch onto an independent copy of the broken configurations, and
//     verify every policy by hop-by-hop simulation under bounded link
//     failures, plus a patch-minimality spot check.
//   - CheckCompress: a compressed repair versus an uncompressed one of the
//     same broken fat-tree, with the compressed patch re-verified from
//     text.
//   - CheckIncremental: repairs through a long-lived session after each
//     config delta versus a cold session of the same texts.
//   - CheckFleet: a load mix through a three-replica front, one replica
//     crashed mid-repair, versus one bare cprd.
//
// Each oracle runs as a seeded test over a fixed band (Test*OracleSeeds)
// and as a native fuzz target (Fuzz*) over a checked-in seed corpus
// under testdata/fuzz; `go test -fuzz` explores beyond it.
package crosscheck

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Divergence is a failed cross-check: the oracle and the production code
// disagreed (or an internal invariant broke while checking). It carries
// the reproduction material that agree logs.
type Divergence struct {
	// Oracle names the check that failed: "sat", "maxsat", "arenagc",
	// "repair", "compress", "incremental" or "fleet".
	Oracle string
	// Seed reproduces the failure deterministically.
	Seed int64
	// Detail describes the disagreement.
	Detail string
	// Files holds reproducer artifacts by file name (DIMACS and WCNF
	// instances, broken configurations, the policy specification, load
	// traces).
	Files map[string]string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("crosscheck(%s, seed %d): %s", d.Oracle, d.Seed, d.Detail)
}

// divf builds a Divergence with a formatted detail message.
func divf(oracle string, seed int64, format string, args ...interface{}) *Divergence {
	return &Divergence{Oracle: oracle, Seed: seed, Detail: fmt.Sprintf(format, args...)}
}

// agree fails t when an oracle returned an error. A *Divergence's
// reproducer files are logged first, in name order, so a failing run's
// log holds everything needed to replay it.
func agree(t testing.TB, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var d *Divergence
	if errors.As(err, &d) {
		names := make([]string, 0, len(d.Files))
		for name := range d.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t.Logf("reproducer %s:\n%s", name, d.Files[name])
		}
	}
	t.Fatal(err)
}

// Deterministic tier-1 sweeps: a fixed band of seeds per oracle, small
// enough to run in the regular test suite. The Fuzz targets below run the
// same checks over seeds the fuzz engine picks.

func TestSATOracleSeeds(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		agree(t, CheckSAT(seed))
	}
}

func TestMaxSATOracleSeeds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		agree(t, CheckMaxSAT(seed))
	}
}

func TestArenaGCOracleSeeds(t *testing.T) {
	gcs, reductions, err := ArenaGCActivity(40)
	agree(t, err)
	// The band must actually exercise the paths under test, or the oracle
	// is vacuous: the tiny reduceDB trigger and waste threshold are tuned
	// so dozens of compactions happen across 40 seeds.
	if gcs == 0 {
		t.Fatal("seed band never triggered an arena GC")
	}
	if reductions == 0 {
		t.Fatal("seed band never triggered a DB reduction")
	}
}

func TestRepairOracleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("repair oracle is slow in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		agree(t, CheckRepair(seed))
	}
}

func TestIncrementalOracleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental oracle is slow in -short mode")
	}
	for seed := int64(1); seed <= 4; seed++ {
		agree(t, CheckIncremental(seed))
	}
}

func TestCompressOracleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("compression oracle is slow in -short mode")
	}
	for seed := int64(1); seed <= 6; seed++ {
		agree(t, CheckCompress(seed))
	}
}

func TestFleetOracleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet oracle is slow in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		agree(t, CheckFleet(seed))
	}
}

// TestBruteSATAgainstRandomModels sanity-checks the oracle's own brute
// force: for satisfiable instances found by enumeration, a concrete
// witness model must exist and satisfy every clause.
func TestBruteSATAgainstRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		inst := genCNF(rng)
		want := bruteSAT(inst.nVars, inst.clauses, nil)
		found := false
		for model := uint32(0); model < 1<<uint(inst.nVars); model++ {
			ok := true
			for _, c := range inst.clauses {
				if !satisfies(c, model) {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if found != want {
			t.Fatalf("bruteSAT disagrees with witness search on instance %d", i)
		}
	}
}

// TestMinimizerPreservesFailure plants a synthetic divergence detector
// shape: minimization must never return an instance that passes.
func TestMinimizerPreservesFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		inst := genCNF(rng)
		if checkCNF(inst) != "" {
			min := minimizeCNF(inst)
			if checkCNF(min) == "" {
				t.Fatalf("minimized instance passes but original failed (iteration %d)", i)
			}
		}
	}
}

// Native fuzz targets. Each consumes a single int64 seed — the corpus
// under testdata/fuzz pins the deterministic band, and `go test -fuzz`
// explores beyond it. The engine writes every failing seed below
// testdata/fuzz, where `go test -run FuzzX/<file>` replays it.

func FuzzSAT(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckSAT(seed))
	})
}

func FuzzMaxSAT(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckMaxSAT(seed))
	})
}

func FuzzArenaGC(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckArenaGC(seed))
	})
}

func FuzzRepair(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckRepair(seed))
	})
}

func FuzzCompress(f *testing.F) {
	// Seeds 1-4 predate quotient-side verification; 5-8 widen the pinned
	// band now that CheckCompress also cross-checks the quotient-verify
	// accept path against the full concrete re-verify.
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckCompress(seed))
	})
}

func FuzzIncremental(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckIncremental(seed))
	})
}

func FuzzFleet(f *testing.F) {
	if testing.Short() {
		f.Skip("fleet oracle is slow in -short mode")
	}
	// The seed corpus is testdata/fuzz/FuzzFleet alone: seeds 1-3 and a
	// negative seed.
	f.Fuzz(func(t *testing.T, seed int64) {
		agree(t, CheckFleet(seed))
	})
}
