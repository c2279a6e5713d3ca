package crosscheck

import (
	"repro"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"

	"math/rand"
)

// CheckCompress runs the symmetry-compression oracle for one seed:
//
//	generate fat-tree → break → repair compressed AND uncompressed →
//	compare dispositions and independently verify the compressed patch.
//
// The two runs must agree on solvability, the compressed patch must
// satisfy every policy on an independently rebuilt HARC of the patched
// network, and — on odd seeds, which force a lossless quotient by keeping
// every class member as a representative — the compressed repair must
// cost exactly as many construct changes as the uncompressed optimum.
// Even seeds use the derived redundancy, where the concretized patch may
// legitimately cost more than the optimum but never less.
func CheckCompress(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ftOpts := generate.FatTreeOptions{
		K:              4,
		SubnetsPerEdge: 1,
		PC1:            rng.Intn(3),
		PC2:            rng.Intn(2),
		PC3:            1 + rng.Intn(2), // ≥1 policy overall
		PC4:            rng.Intn(2),
		Seed:           seed,
	}
	inst, err := generate.FatTree(ftOpts)
	if err != nil {
		return divf("compress", seed, "fat-tree generation failed: %v", err)
	}
	breakCount := rng.Intn(3) // 0 = one per configured class
	if err := generate.BreakFatTree(inst, seed+1, breakCount); err != nil {
		return divf("compress", seed, "breaking the instance failed: %v", err)
	}
	brokenText := map[string]string{}
	for _, c := range inst.Configs {
		brokenText[c.Hostname] = c.Print()
	}

	fail := func(format string, args ...interface{}) *Divergence {
		d := divf("compress", seed, format, args...)
		d.Files = map[string]string{"policies.txt": policy.Format(inst.Policies)}
		for host, text := range brokenText {
			d.Files[host+".cfg"] = text
		}
		return d
	}

	sys, err := cpr.Load(brokenText)
	if err != nil {
		return fail("broken configs do not re-load: %v", err)
	}
	policies, err := generate.RemapPolicies(inst.Policies, sys.Network)
	if err != nil {
		return fail("policy remap failed: %v", err)
	}

	// A k=4 fat-tree (20 devices) sits under the auto threshold, so force
	// compression on; odd seeds additionally keep every class member,
	// making the quotient lossless and its optimum exact.
	lossless := seed%2 != 0
	optsOn := cpr.DefaultOptions()
	optsOn.Compress = core.CompressOn
	if lossless {
		optsOn.CompressRedundancy = 1 << 20
	}
	optsOff := cpr.DefaultOptions()
	optsOff.Compress = core.CompressOff

	outOn, err := sys.Repair(policies, optsOn)
	if err != nil {
		return fail("compressed repair error: %v", err)
	}
	outOff, err := sys.Repair(policies, optsOff)
	if err != nil {
		return fail("uncompressed repair error: %v", err)
	}

	if outOn.Solved() != outOff.Solved() {
		return fail("solvability diverges: compressed solved=%v, uncompressed solved=%v",
			outOn.Solved(), outOff.Solved())
	}
	if !outOff.Solved() {
		return fail("uncompressed repair did not solve a repairable instance")
	}

	// Independent soundness check: the compressed patch, re-parsed from
	// text and rebuilt from scratch, must satisfy every policy.
	n2, ps2, err := loadPatched(outOn.PatchedConfigs, inst.Policies)
	if err != nil {
		return fail("compressed patched configs do not load: %v", err)
	}
	if bad := policy.Violations(harc.Build(n2), ps2); len(bad) != 0 {
		return fail("compressed patch violates %d policies (first: %s)", len(bad), bad[0])
	}

	onChanges, offChanges := outOn.Result.Changes, outOff.Result.Changes
	if lossless {
		if onChanges != offChanges {
			return fail("lossless quotient diverges from exact optimum: compressed %d changes, uncompressed %d",
				onChanges, offChanges)
		}
	} else if onChanges < offChanges {
		// The uncompressed run is the per-problem optimum; a concretized
		// patch claiming to beat it means an unsound accounting somewhere.
		return fail("compressed repair claims %d changes, below the uncompressed optimum %d",
			onChanges, offChanges)
	}
	return nil
}
