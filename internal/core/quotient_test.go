package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/compress"
	"repro/internal/generate"
)

// TestRepairQuotientSizes pins the quotients a repair actually solves on:
// the specs buildProblems makes for dc-256 and dc-512 (seed 7). Each
// per-destination sub-problem's classes run from every source leaf to its
// destination, so every source subnet stays a concrete endpoint, and all
// of a repair's sub-problems ask for one and the same quotient: 50 classes
// and 52 devices on dc-256, 66 and 68 on dc-512. (The 4 classes and
// 6 devices of TestPresetClassCounts are a spec with one class.)
func TestRepairQuotientSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dc-512")
	}
	for _, c := range []struct {
		preset           string
		classes, devices int
	}{{"dc-256", 50, 52}, {"dc-512", 66, 68}} {
		inst, err := generate.Preset(c.preset, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := inst.Harc()
		opts := DefaultOptions()
		problems, err := buildProblems(h, inst.Policies, opts)
		if err != nil {
			t.Fatal(err)
		}
		tb := newTables(h)
		keys := map[string]bool{}
		for _, pr := range problems {
			if !compressEligible(h, pr, opts) {
				t.Fatalf("%s/%s: not compressible", c.preset, pr.label)
			}
			spec := compress.Spec{TCs: pr.tcs, Redundancy: compressRedundancy(pr, opts)}
			keys[tb.prepared().Key(spec)] = true
			sq, err := tb.quotient(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got, dev := len(sq.q.Classes), sq.q.Net.NumDevices(); got != c.classes || dev != c.devices {
				t.Errorf("%s/%s: %d classes, %d devices; want %d and %d", c.preset, pr.label, got, dev, c.classes, c.devices)
			}
		}
		t.Logf("%s: %d sub-problems, %d distinct specs", c.preset, len(problems), len(keys))
		if len(problems) < 2 || len(keys) != 1 {
			t.Errorf("%s: %d sub-problems ask for %d distinct quotients, want several asking for one", c.preset, len(problems), len(keys))
		}
	}
}

// TestOneQuotientPerRepair counts compress.Prepared.Build calls: a repair
// of dc-256 or dc-512 builds its one quotient exactly once, however many
// sub-problems solve on it (all of them, each solved) and however many
// workers race for it. Under -race it exercises the first-use build
// racing across workers.
func TestOneQuotientPerRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("repairs dc-512")
	}
	var builds atomic.Int64
	quotientBuilt = func() { builds.Add(1) }
	t.Cleanup(func() { quotientBuilt = nil })
	for _, preset := range []string{"dc-256", "dc-512"} {
		inst, err := generate.Preset(preset, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := inst.Harc()
		for _, par := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/parallel=%d", preset, par), func(t *testing.T) {
				builds.Store(0)
				opts := DefaultOptions()
				opts.Parallelism = par
				res, err := Repair(h, inst.Policies, opts)
				if err != nil || !res.Solved || res.Compressed != len(res.Stats) {
					t.Fatalf("solved %v, %d of %d compressed, err %v", res != nil && res.Solved, res.Compressed, len(res.Stats), err)
				}
				if n := builds.Load(); n != 1 {
					t.Errorf("%d quotient builds for %d compressed sub-problems, want 1", n, res.Compressed)
				}
			})
		}
	}
}
