package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
)

// determinismFixture is a corpus network with several violated
// destinations, so per-dst decomposition yields a real multi-problem
// fan-out (the same instance the ablation benchmarks use).
func determinismFixture(t *testing.T) (*harc.HARC, []policy.Policy) {
	t.Helper()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "det", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

// comparable projects a Result onto its deterministic fields: everything
// except wall-clock durations. Vars, Softs, Violations, and Conflicts ARE
// included — the interned encoding is byte-identical across parallelism
// settings, so even solver-internal counters must agree.
type comparableResult struct {
	State    *harc.State
	Changes  int
	Solved   bool
	Degraded int
	Failed   int
	Repaired []policy.Policy
	Stats    []ProblemStat
}

// equal is reflect.DeepEqual with the state compared by content (a State
// carries copy-on-write bookkeeping that differs between equal states).
func (c comparableResult) equal(o comparableResult) bool {
	cs, os := c.State, o.State
	c.State, o.State = nil, nil
	return cs.Equal(os) && reflect.DeepEqual(c, o)
}

func project(res *Result) comparableResult {
	stats := make([]ProblemStat, len(res.Stats))
	copy(stats, res.Stats)
	for i := range stats {
		stats[i].Duration = 0
		stats[i].Reused = false
		stats[i].HarcBuildNs = 0
		stats[i].EncodeNs = 0
		stats[i].SolveNs = 0
		stats[i].ConcretizeNs = 0
		stats[i].ReverifyNs = 0
	}
	return comparableResult{
		State:    res.State,
		Changes:  res.Changes,
		Solved:   res.Solved,
		Degraded: res.Degraded,
		Failed:   res.Failed,
		Repaired: res.Repaired,
		Stats:    stats,
	}
}

// TestRepairDeterministicAcrossParallelism pins the Parallelism contract:
// 1, 2 and 4 workers and the GOMAXPROCS default must produce identical
// results — same repaired state, same change count, same per-problem
// statistics — with compression off and on, and with the incremental
// solve cache both absent and replaying (a cached replay must be
// byte-identical to the fresh solve it memoized, at every parallelism).
// Run with -race, this also exercises the shared read-only encoding
// tables and the solve cache's store/lookup path across workers.
func TestRepairDeterministicAcrossParallelism(t *testing.T) {
	h, ps := determinismFixture(t)
	// Compression is forced on (the 8-router fixture sits below the auto
	// threshold) so the quotient build, solve, and patch concretization
	// are all under the same byte-identical contract.
	for _, cmp := range []CompressMode{CompressOff, CompressOn} {
		var fresh *comparableResult
		for _, inc := range []bool{false, true} {
			t.Run(fmt.Sprintf("compress=%v/incremental=%v", cmp, inc), func(t *testing.T) {
				var ref comparableResult
				for i, par := range []int{1, 2, 4, 0} {
					opts := DefaultOptions()
					opts.Compress = cmp
					opts.Parallelism = par
					if inc {
						// Fresh cache per parallelism setting: prime it with
						// one solve, then measure the replay. The replay must
						// reuse every sub-problem and match the fresh result
						// other runs produce without a cache.
						opts.Cache = NewSolveCache("det-epoch")
						if _, err := Repair(h, ps, opts); err != nil {
							t.Fatalf("prime Repair(parallelism=%d): %v", par, err)
						}
					}
					res, err := Repair(h, ps, opts)
					if err != nil {
						t.Fatalf("Repair(parallelism=%d): %v", par, err)
					}
					if !res.Solved {
						t.Fatalf("Repair(parallelism=%d) unsolved: %+v", par, res.Stats)
					}
					if inc && res.Reused != len(res.Stats) {
						t.Fatalf("Repair(parallelism=%d) replayed %d of %d problems, want all",
							par, res.Reused, len(res.Stats))
					}
					got := project(res)
					if i == 0 {
						ref = got
						continue
					}
					if !got.State.Equal(ref.State) {
						t.Errorf("parallelism=%d: repaired state differs from parallelism=1", par)
					}
					if got.Changes != ref.Changes {
						t.Errorf("parallelism=%d: changes %d != %d", par, got.Changes, ref.Changes)
					}
					if !reflect.DeepEqual(got.Repaired, ref.Repaired) {
						t.Errorf("parallelism=%d: repaired policy set differs", par)
					}
					if !reflect.DeepEqual(got.Stats, ref.Stats) {
						t.Errorf("parallelism=%d: stats differ\n got %+v\nwant %+v", par, got.Stats, ref.Stats)
					}
					if got.Solved != ref.Solved || got.Degraded != ref.Degraded || got.Failed != ref.Failed {
						t.Errorf("parallelism=%d: outcome counts differ", par)
					}
				}
				// The cached replays must equal the fresh solve of the same
				// compression mode (the first leg run).
				if fresh == nil {
					fresh = &ref
				} else if !ref.equal(*fresh) {
					t.Errorf("compress=%v: cached replay differs from the fresh solve", cmp)
				}
			})
		}
	}
}

// TestRepairDeterministicAcrossAlgorithmsAndParallelism extends the
// parallelism contract to both MaxSAT engines: within one
// algorithm the repair must be byte-identical at every Parallelism
// setting, and across algorithms — which may land on different
// equally-minimal models — the total cost (violated softs, i.e. modeled
// configuration changes) must agree and every repaired state must
// verify.
func TestRepairDeterministicAcrossAlgorithmsAndParallelism(t *testing.T) {
	h, ps := determinismFixture(t)
	costs := map[maxsat.Algorithm]int{}
	for _, algo := range []maxsat.Algorithm{maxsat.LinearDescent, maxsat.OLL} {
		t.Run(algo.String(), func(t *testing.T) {
			var ref comparableResult
			for i, par := range []int{1, 3, 0} {
				opts := DefaultOptions()
				opts.Algorithm = algo
				opts.Parallelism = par
				res, err := Repair(h, ps, opts)
				if err != nil {
					t.Fatalf("Repair(%v, parallelism=%d): %v", algo, par, err)
				}
				if !res.Solved {
					t.Fatalf("Repair(%v, parallelism=%d) unsolved: %+v", algo, par, res.Stats)
				}
				if bad := VerifyRepair(h, res.State, ps); len(bad) != 0 {
					t.Fatalf("Repair(%v, parallelism=%d) still violates %v", algo, par, bad)
				}
				got := project(res)
				if i == 0 {
					ref = got
					for _, st := range res.Stats {
						costs[algo] += st.Violations
					}
					continue
				}
				if !got.equal(ref) {
					t.Errorf("%v: parallelism=%d differs from parallelism=1", algo, par)
				}
			}
		})
	}
	if costs[maxsat.OLL] != costs[maxsat.LinearDescent] {
		t.Errorf("oll repair cost %d != linear %d", costs[maxsat.OLL], costs[maxsat.LinearDescent])
	}
}

// TestRepairSharedTablesRace hammers the shared per-repair tables with
// more workers than problems; meaningful under -race, where any write to
// the read-only tables or the cloned base state during the fan-out is a
// reported data race.
func TestRepairSharedTablesRace(t *testing.T) {
	h, ps := determinismFixture(t)
	opts := DefaultOptions()
	opts.Parallelism = 8
	for i := 0; i < 2; i++ {
		res, err := Repair(h, ps, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Solved {
			t.Fatalf("unsolved: %+v", res.Stats)
		}
		if v := VerifyRepair(h, res.State, ps); len(v) != 0 {
			t.Fatalf("repaired state violates: %v", v)
		}
	}
}

// TestVerifyRepairIncrementalWorkers holds VerifyRepairIncremental's
// answer to its sequential one at 2 and 8 workers on dc-256's touched
// set: the repaired state, where nothing is violated, and the original
// one, where the violations come back in input order.
func TestVerifyRepairIncrementalWorkers(t *testing.T) {
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := dc.Harc()
	res, err := Repair(h, dc.Policies, DefaultOptions())
	if err != nil || !res.Solved {
		t.Fatalf("dc-256: solved %v, err %v", res != nil && res.Solved, err)
	}
	for _, leg := range []struct {
		name string
		st   *harc.State
	}{{"repaired", res.State}, {"original", harc.StateOf(h)}} {
		want := VerifyRepairIncremental(h, leg.st, dc.Policies, res.Touched, 1)
		if (leg.name == "original") == (len(want) == 0) {
			t.Fatalf("%s: %d violations at 1 worker", leg.name, len(want))
		}
		for _, workers := range []int{2, 8} {
			if got := VerifyRepairIncremental(h, leg.st, dc.Policies, res.Touched, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %d workers found %d violations, 1 worker %d (or another order)", leg.name, workers, len(got), len(want))
			}
		}
	}
}
