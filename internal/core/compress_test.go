package core

import (
	"testing"

	"repro/internal/arc"
	"repro/internal/generate"
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

// TestCompressedAcceptanceChecksEveryPolicy pins the acceptance rule of a
// concretized patch: every policy of the sub-problem is checked on the
// concrete state, not the pre-violated ones plus a sample. For each
// compressed sub-problem of a repaired data center, each reachability
// policy that held before the repair is broken in turn — its class's
// source attachment bit cleared in an otherwise accepted state — and every
// such state must be rejected at stage "reverify". (A check that samples
// one policy per touched class beside the pre-violated ones accepts all
// but a handful of these.)
func TestCompressedAcceptanceChecksEveryPolicy(t *testing.T) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "compress-accept", Routers: 24, Subnets: 12,
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
	groups := policy.GroupByDst(inst.Policies)
	broken := 0
	for _, stat := range res.Stats {
		if !stat.Compressed {
			continue
		}
		pr := &problem{label: stat.Label, policies: groups[stat.Label]}
		if !acceptConcrete(h, res.State, pr) {
			t.Fatalf("problem %s: the accepted state is rejected untampered", pr.label)
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
			pr.stat = ProblemStat{}
			if acceptConcrete(h, tampered, pr) || pr.stat.CompressFallback != "reverify" {
				t.Errorf("problem %s: state violating %q accepted (stage %q)", pr.label, p, pr.stat.CompressFallback)
			}
			broken++
		}
	}
	if broken == 0 {
		t.Fatalf("no compressed sub-problem with a satisfied reachability policy to break (stats: %+v)", res.Stats)
	}
	t.Logf("%d tampered states, all rejected", broken)
}
