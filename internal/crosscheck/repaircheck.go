package crosscheck

import (
	"fmt"
	"math/rand"

	"repro"
	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/smt/maxsat"
	"repro/internal/topology"
	"repro/internal/translate"
)

// failBudget bounds the failure sets the simulation oracle enumerates for
// policies without their own k (PC1 and PC2): every subset of at most
// this many failed links is checked. PC3 uses its policy's K-1, making
// the PC3 check exact.
const failBudget = 2

// CheckRepair runs the end-to-end repair oracle for one seed:
//
//	generate fat-tree → break → cpr.Repair → replay patch → simulate.
//
// A non-nil error is a *Divergence whose Files contain the broken
// configurations and the policy specification.
func CheckRepair(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ftOpts := generate.FatTreeOptions{
		K:              4,
		SubnetsPerEdge: 1,
		PC1:            rng.Intn(2),
		PC2:            rng.Intn(2),
		PC3:            1 + rng.Intn(2), // ≥1 policy overall
		PC4:            rng.Intn(2),
		Seed:           seed,
	}
	inst, err := generate.FatTree(ftOpts)
	if err != nil {
		return divf("repair", seed, "fat-tree generation failed: %v", err)
	}
	breakCount := rng.Intn(3) // 0 = one per configured class
	if err := generate.BreakFatTree(inst, seed+1, breakCount); err != nil {
		return divf("repair", seed, "breaking the instance failed: %v", err)
	}
	brokenText := map[string]string{}
	for _, c := range inst.Configs {
		brokenText[c.Hostname] = c.Print()
	}

	opts := cpr.DefaultOptions()
	// Alternate the production engine with the linear reference. The draw
	// itself is part of what a seed means: every corpus entry and CI seed
	// generates the instance it always did.
	if rng.Intn(2) == 1 {
		opts.Algorithm = maxsat.LinearDescent
	}
	granAll := rng.Intn(2) == 1
	if granAll {
		opts.Granularity = cpr.AllTCs
	}

	fail := func(format string, args ...interface{}) *Divergence {
		d := divf("repair", seed, format, args...)
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
	out, err := sys.Repair(policies, opts)
	if err != nil {
		return fail("repair error (%s, %s): %v", opts.Granularity, opts.Algorithm, err)
	}
	if !out.Solved() {
		return fail("repair did not solve a repairable instance (%s, %s)", opts.Granularity, opts.Algorithm)
	}

	// Patch fidelity: replaying the recorded line changes onto an
	// independent parse of the broken configs must reproduce exactly the
	// patched configurations the translator emitted.
	applied, err := parseConfigs(brokenText)
	if err != nil {
		return fail("broken configs do not re-parse: %v", err)
	}
	if err := translate.ApplyPlan(applied, out.Plan); err != nil {
		return fail("recorded patch does not apply: %v", err)
	}
	for host, c := range applied {
		if got, want := c.Print(), out.PatchedConfigs[host]; got != want {
			return fail("replayed patch diverges from translator output on %s:\n--- replayed ---\n%s--- translated ---\n%s", host, got, want)
		}
	}

	// Ground truth: every patched configuration must re-parse, and every
	// policy must hold under hop-by-hop simulation with bounded failures.
	n2, ps2, err := loadPatched(out.PatchedConfigs, inst.Policies)
	if err != nil {
		return fail("patched configs do not load: %v", err)
	}
	if detail := simVerify(n2, ps2); detail != "" {
		return fail("patched network violates policy by simulation: %s", detail)
	}

	// Minimality spot check, valid only for the single-problem
	// decomposition (per-destination sub-problems are individually but not
	// jointly minimal): no patch group may be droppable while all
	// policies still hold on the abstraction the solver optimized.
	if granAll {
		if detail := checkMinimality(brokenText, inst.Policies, out.Plan); detail != "" {
			return fail("repair is not minimal: %s", detail)
		}
	}
	return nil
}

func parseConfigs(texts map[string]string) (map[string]*config.Config, error) {
	out := make(map[string]*config.Config, len(texts))
	for host, text := range texts {
		c, err := config.Parse(host+".cfg", text)
		if err != nil {
			return nil, err
		}
		out[host] = c
	}
	return out, nil
}

// loadPatched parses and extracts the patched configurations and rebinds
// the policies onto the resulting network.
func loadPatched(texts map[string]string, ps []policy.Policy) (*topology.Network, []policy.Policy, error) {
	cfgs, err := parseConfigs(texts)
	if err != nil {
		return nil, nil, err
	}
	var list []*config.Config
	for _, host := range sortedKeys(cfgs) {
		list = append(list, cfgs[host])
	}
	n, err := config.Extract(list)
	if err != nil {
		return nil, nil, err
	}
	remapped, err := generate.RemapPolicies(ps, n)
	if err != nil {
		return nil, nil, err
	}
	return n, remapped, nil
}

func sortedKeys(m map[string]*config.Config) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; maps are small
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// simVerify checks every policy against the forwarding simulator,
// exhaustively enumerating failure sets up to the policy's tolerance
// (PC3, in the path-set reading of simulate.ReachableBySteering) or
// failBudget (PC1, PC2). It returns a description of the first
// violation, or "".
func simVerify(n *topology.Network, ps []policy.Policy) string {
	for _, p := range ps {
		switch p.Kind {
		case policy.AlwaysBlocked:
			if !simulate.BlockedUnderFailures(n, p.TC, failBudget) {
				return fmt.Sprintf("%s: delivered under some ≤%d-failure scenario", p, failBudget)
			}
		case policy.AlwaysWaypoint:
			if !simulate.WaypointUnderFailures(n, p.TC, failBudget) {
				return fmt.Sprintf("%s: delivered without a waypoint under some ≤%d-failure scenario", p, failBudget)
			}
		case policy.KReachable:
			if !simulate.ReachableBySteering(n, p.TC, p.K) {
				return fmt.Sprintf("%s: no surviving path under some ≤%d-failure scenario", p, p.K-1)
			}
		case policy.PrimaryPath:
			out, path, ambiguous := simulate.Forward(n, p.TC, nil)
			if out != simulate.Delivered {
				return fmt.Sprintf("%s: %v with no failures", p, out)
			}
			if !ambiguous && !equalPath(path, p.Path) {
				return fmt.Sprintf("%s: forwarding took %v", p, path)
			}
		}
	}
	return ""
}

func equalPath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMinimality verifies that no single patch group (one construct
// edit) can be dropped while the full specification still holds on the
// HARC — a compliant strictly-smaller patch would contradict the
// solver's claimed optimum. Waypoint placements are spot-checked the
// same way.
func checkMinimality(brokenText map[string]string, ps []policy.Policy, plan *translate.Plan) string {
	compliantWithout := func(skipGroup int, skipWaypoint int) (bool, error) {
		cfgs, err := parseConfigs(brokenText)
		if err != nil {
			return false, err
		}
		for gi, group := range plan.Groups {
			if gi == skipGroup {
				continue
			}
			for _, lc := range group {
				if err := cfgs[lc.Device].Apply(lc); err != nil {
					return false, err
				}
			}
		}
		for wi, group := range plan.WaypointLines {
			if wi == skipWaypoint {
				continue
			}
			for _, lc := range group {
				if err := cfgs[lc.Device].Apply(lc); err != nil {
					return false, err
				}
			}
		}
		texts := make(map[string]string, len(cfgs))
		for host, c := range cfgs {
			texts[host] = c.Print()
		}
		n, remapped, err := loadPatched(texts, ps)
		if err != nil {
			return false, err
		}
		return len(policy.Violations(harc.Build(n), remapped)) == 0, nil
	}
	for gi, group := range plan.Groups {
		ok, err := compliantWithout(gi, -1)
		if err != nil {
			// A group that cannot be dropped independently (later edits
			// depend on it) is by definition not redundant.
			continue
		}
		if ok {
			return fmt.Sprintf("dropping patch group %d (%v) still satisfies every policy", gi, group)
		}
	}
	for wi := range plan.WaypointLines {
		if len(plan.WaypointLines[wi]) == 0 {
			continue
		}
		ok, err := compliantWithout(-1, wi)
		if err != nil {
			continue
		}
		if ok {
			return fmt.Sprintf("dropping waypoint change %d (%s) still satisfies every policy", wi, plan.Waypoints[wi].Link)
		}
	}
	return ""
}
