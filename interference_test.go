package cpr

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/policy"
)

// devicesTouchedPerDst maps each repaired destination to the devices
// whose configuration its rows changed: every slot at which the
// destination's dETG, static or class rows differ carries its device,
// and every flipped route filter its process's device.
func devicesTouchedPerDst(sys *System, res *Result) map[string]map[string]bool {
	h := sys.HARC
	out := map[string]map[string]bool{}
	touch := func(dst, dev string) {
		if out[dst] == nil {
			out[dst] = map[string]bool{}
		}
		out[dst][dev] = true
	}
	for r, dst := range h.Dsts {
		slot := func(id int) { touch(dst.Name, h.Slots[id].Device().Name) }
		bitset.EachDiff(res.Orig.Dst[r], res.State.Dst[r], slot)
		bitset.EachDiff(res.Orig.Static[r], res.State.Static[r], slot)
		bitset.EachDiff(res.Orig.RouteFilter[r], res.State.RouteFilter[r], func(pid int) {
			touch(dst.Name, h.Procs[pid].Device.Name)
		})
	}
	for r, tc := range h.TCs {
		bitset.EachDiff(res.Orig.TC[r], res.State.TC[r], func(id int) {
			// An ACL lands on the head of an inter-device edge.
			s := h.Slots[id]
			dev := s.Device().Name
			if s.ToIntf != nil {
				dev = s.ToIntf.Device.Name
			}
			touch(tc.Dst.Name, dev)
		})
	}
	return out
}

// interferingInstance searches the data-center generator's seeds for a
// broken network on which two destinations' repairs edit one device.
func interferingInstance(t *testing.T, opts Options) (map[string]string, string) {
	t.Helper()
	for seed := int64(1); seed <= 40; seed++ {
		inst, err := generate.DataCenter(generate.DCOptions{
			Name: fmt.Sprintf("interfere%d", seed), Routers: 10, Subnets: 14,
			BlockedFrac: 0.3, Violations: 5, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		texts := map[string]string{}
		for name, c := range inst.Configs {
			texts[name] = c.Print()
		}
		spec := policy.Format(inst.Policies)
		sys, err := Load(texts)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sys.ParsePolicies(spec)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sys.Repair(ps, opts)
		if err != nil || !out.Solved() || len(out.Result.Stats) < 2 {
			continue
		}
		seen := map[string]string{}
		for dst, devs := range devicesTouchedPerDst(sys, out.Result) {
			for dev := range devs {
				if other, ok := seen[dev]; ok && other != dst {
					t.Logf("seed %d: destinations %s and %s both repair on %s", seed, other, dst, dev)
					return texts, spec
				}
				seen[dev] = dst
			}
		}
	}
	t.Fatal("no seed produced two destinations repairing on one device")
	return nil, ""
}

// TestCrossDestinationInterference: sub-problems are solved against the
// pre-repair state, one destination at a time, and merged afterwards.
// When two destinations' repairs land on the same device, nothing an
// earlier merge wrote may be lost or re-derived from stale state: every
// repaired policy must verify on the *merged* state and on the network
// the patched text describes, and the patch must not depend on how many
// workers solved the sub-problems. Run with and without the quotient
// path, whose realized states merge through the same rows.
func TestCrossDestinationInterference(t *testing.T) {
	for _, mode := range []core.CompressMode{core.CompressOff, core.CompressOn} {
		t.Run("compress="+mode.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Compress = mode
			texts, spec := interferingInstance(t, opts)
			var ref map[string]string
			for _, par := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				sys, err := Load(texts)
				if err != nil {
					t.Fatal(err)
				}
				ps, err := sys.ParsePolicies(spec)
				if err != nil {
					t.Fatal(err)
				}
				o := opts
				o.Parallelism = par
				out, err := sys.Repair(ps, o)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !out.Solved() {
					t.Fatalf("parallelism %d: unsolved: %+v", par, out.Result.Stats)
				}
				if mode == core.CompressOn && out.Result.Compressed < 2 {
					t.Fatalf("parallelism %d: %d sub-problems went through the quotient path, want the interfering pair", par, out.Result.Compressed)
				}
				// The whole specification, not just the touched classes, on
				// the merged state ...
				if bad := core.VerifyRepair(sys.HARC, out.Result.State, ps); len(bad) != 0 {
					t.Fatalf("parallelism %d: merged state violates %v", par, bad)
				}
				// ... and on the network the patch text describes.
				patched, err := Load(out.PatchedConfigs)
				if err != nil {
					t.Fatal(err)
				}
				pps, err := patched.ParsePolicies(spec)
				if err != nil {
					t.Fatal(err)
				}
				if bad := patched.Verify(pps); len(bad) != 0 {
					t.Fatalf("parallelism %d: patched network violates %v", par, bad)
				}
				if ref == nil {
					ref = out.PatchedConfigs
				} else if !reflect.DeepEqual(ref, out.PatchedConfigs) {
					t.Fatalf("parallelism %d: patched text differs from parallelism 1", par)
				}
			}
		})
	}
}
