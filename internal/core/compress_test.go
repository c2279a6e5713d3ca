package core

import (
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
)

// TestCompressedRepairFatTree runs the headline compression scenario: a
// broken k=8 fat-tree (80 routers) repaired with symmetry compression
// forced on. The concretized patch must verify on the uncompressed
// HARC, at least one sub-problem must actually have been solved on a
// quotient, and the quotient must be materially smaller than the
// network.
func TestCompressedRepairFatTree(t *testing.T) {
	if testing.Short() {
		t.Skip("k=8 fat-tree repair is slow under -short")
	}
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 8, PC1: 6, PC2: 2, PC3: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 13, 5); err != nil {
		t.Fatal(err)
	}
	h := inst.Harc()
	opts := DefaultOptions()
	opts.Compress = CompressOn
	res, err := Repair(h, inst.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("repair not solved: failed=%d", res.Failed)
	}
	if res.Compressed == 0 {
		t.Fatalf("no sub-problem was solved on a quotient (fallbacks=%d)", res.CompressFallbacks)
	}
	if v := VerifyRepair(h, res.State, inst.Policies); len(v) > 0 {
		t.Fatalf("%d policies violated after compressed repair: %v", len(v), v[0])
	}
	for _, st := range res.Stats {
		if st.Compressed && st.QuotientDevices >= h.Network.NumDevices() {
			t.Fatalf("problem %s: quotient (%d devices) not smaller than network (%d)",
				st.Label, st.QuotientDevices, h.Network.NumDevices())
		}
	}
	t.Logf("compressed=%d fallbacks=%d changes=%d", res.Compressed, res.CompressFallbacks, res.Changes)
}

// TestCompressedRepairVerifiesOnDC forces compression on the small
// data-center fixture (below the auto threshold) and checks the
// safety-net contract: whatever mix of quotient solves and fallbacks
// results, the final state satisfies the specification and the result
// is no worse than the uncompressed one in coverage.
func TestCompressedRepairVerifiesOnDC(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "compress-dc", Routers: 12, Subnets: 10,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := inst.Harc()

	opts := DefaultOptions()
	opts.Compress = CompressOn
	res, err := Repair(h, inst.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Usable() {
		t.Fatal("compressed repair produced no usable result")
	}
	if v := VerifyRepair(h, res.State, res.Repaired); len(v) > 0 {
		t.Fatalf("repaired policies violated: %v", v[0])
	}

	off := DefaultOptions()
	off.Compress = CompressOff
	base, err := Repair(h, inst.Policies, off)
	if err != nil {
		t.Fatal(err)
	}
	if base.Solved && !res.Solved {
		t.Fatal("compression lost solvability relative to the uncompressed path")
	}
}

// TestCompressedLosslessCostExact pins the lossless contract: with the
// per-class redundancy raised above every class size, the quotient is
// the (relevant-subnet restriction of the) concrete network, so the
// compressed repair must match the uncompressed change count exactly.
func TestCompressedLosslessCostExact(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "compress-lossless", Routers: 10, Subnets: 8,
		BlockedFrac: 0.3, Violations: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := inst.Harc()

	on := DefaultOptions()
	on.Compress = CompressOn
	on.CompressRedundancy = 1 << 20
	cres, err := Repair(h, inst.Policies, on)
	if err != nil {
		t.Fatal(err)
	}
	off := DefaultOptions()
	off.Compress = CompressOff
	bres, err := Repair(h, inst.Policies, off)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Solved != bres.Solved {
		t.Fatalf("solved mismatch: compressed=%t uncompressed=%t", cres.Solved, bres.Solved)
	}
	if cres.Changes != bres.Changes {
		t.Fatalf("lossless quotient changed the repair cost: compressed=%d uncompressed=%d",
			cres.Changes, bres.Changes)
	}
	if v := VerifyRepair(h, cres.State, cres.Repaired); len(v) > 0 {
		t.Fatalf("repaired policies violated: %v", v[0])
	}
}

// TestCompressedAcceptanceChecksEveryPolicy pins the acceptance gate on
// both answer paths, compressed and uncompressed: every policy of the
// sub-problem is checked on the staged state, not the pre-violated ones
// plus a sample. For each accepted sub-problem of a repaired data center,
// each reachability policy that held before the repair is broken in turn
// — its class's source attachment bit cleared in an otherwise accepted
// state — and accept must reject every such state, naming the policy and
// leaving the problem failed. The same state stored as the sub-problem's
// cache entry must not be replayed by a repeat repair through that cache,
// which solves the sub-problem afresh to the untampered state. (A check
// that samples one policy per touched class beside the pre-violated ones
// accepts all but a handful of these.)
func TestCompressedAcceptanceChecksEveryPolicy(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "compress-accept", Routers: 24, Subnets: 12,
		BlockedFrac: 0.3, FullyBlockedDsts: 1, Violations: 4, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := inst.Harc()
	for _, mode := range []CompressMode{CompressOn, CompressOff} {
		t.Run(mode.String(), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Compress = mode
			opts.Cache = NewSolveCache("compress-accept")
			res, err := Repair(h, inst.Policies, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("repair unsolved: %+v", res.Stats)
			}
			problems, err := buildProblems(h, inst.Policies, opts)
			if err != nil {
				t.Fatal(err)
			}
			tb, orig := newTables(h), harc.StateOf(h)
			broken := 0
			for _, pr := range problems {
				if res.Stats[statIndex(res, pr.label)].Compressed != (mode == CompressOn) {
					t.Fatalf("problem %s: compressed=%t under compress %s", pr.label, mode != CompressOn, mode)
				}
				pr.stat.Outcome = OutcomeFailed
				if accept(h, pr, res.State, 0) != nil || pr.stat.Outcome != OutcomeSolved {
					t.Fatalf("problem %s: the accepted state is rejected untampered", pr.label)
				}
				fp, _, _ := problemMemo(tb, orig, pr, opts)
				entry := opts.Cache.entries[fp]
				if entry == nil {
					t.Fatalf("problem %s: no cache entry", pr.label)
				}
				for _, p := range pr.policies {
					if p.Kind != policy.KReachable || !policy.Check(h, p) {
						continue
					}
					tampered := res.State.Clone()
					r := h.TCRow(p.TC)
					tampered.TC[r].Each(func(id int) {
						if h.Slots[id].Kind == arc.SlotSource {
							tampered.SetTC(r, id, false)
						}
					})
					pr.stat, pr.realized = ProblemStat{Outcome: OutcomeFailed}, nil
					err := accept(h, pr, tampered, 0)
					if err == nil || !strings.Contains(err.Error(), p.String()) || pr.stat.Outcome != OutcomeFailed || pr.realized != nil {
						t.Errorf("problem %s: state violating %q not rejected by name (err %v, outcome %v)", pr.label, p, err, pr.stat.Outcome)
					}
					poisoned := *entry
					poisoned.realized = tampered
					opts.Cache.entries[fp] = &poisoned
					again, err := Repair(h, inst.Policies, opts)
					if err != nil {
						t.Fatal(err)
					}
					if again.Stats[statIndex(again, pr.label)].Reused || !again.Solved || !again.State.Equal(res.State) {
						t.Errorf("problem %s: the entry violating %q was replayed or changed the repair", pr.label, p)
					}
					broken++
				}
				opts.Cache.entries[fp] = entry
			}
			if broken == 0 {
				t.Fatalf("no sub-problem with a satisfied reachability policy to break (stats: %+v)", res.Stats)
			}
			t.Logf("%d tampered states, all rejected", broken)
		})
	}
}

// statIndex returns the index of the stat labeled label in res.Stats.
func statIndex(res *Result, label string) int {
	for i, st := range res.Stats {
		if st.Label == label {
			return i
		}
	}
	panic("no stat labeled " + label)
}
