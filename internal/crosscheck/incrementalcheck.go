package crosscheck

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"

	"repro"
	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
)

// incrementalSteps is how many config mutations each incremental-oracle
// run chains through one session.
const incrementalSteps = 3

// CheckIncremental runs the delta-vs-fresh differential oracle for one
// seed: generate a fat-tree, break it, then apply a random sequence of
// single-device config mutations; after each mutation, repair both
// through the long-lived incremental session (cpr.Session.Delta, solve
// cache warm) and through a cold cpr.NewSession of the same texts, and
// require byte-identical plans, patched configs, and verification
// verdicts. A final replay on the incremental session must reuse every
// sub-problem and still match.
//
// A non-nil error is a *Divergence whose Files contain the config set
// and policy specification at the diverging step.
func CheckIncremental(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	ftOpts := generate.FatTreeOptions{
		K:              4,
		SubnetsPerEdge: 1,
		PC1:            rng.Intn(2),
		PC2:            rng.Intn(2),
		PC3:            1 + rng.Intn(2),
		PC4:            rng.Intn(2),
		Seed:           seed,
	}
	inst, err := generate.FatTree(ftOpts)
	if err != nil {
		return divf("incremental", seed, "fat-tree generation failed: %v", err)
	}
	if err := generate.BreakFatTree(inst, seed+1, rng.Intn(3)); err != nil {
		return divf("incremental", seed, "breaking the instance failed: %v", err)
	}
	texts := map[string]string{}
	for _, c := range inst.Configs {
		texts[c.Hostname] = c.Print()
	}

	opts := cpr.DefaultOptions()
	// Production engine or linear reference; the draw keeps every seed's
	// instance what it was (see CheckRepair).
	if rng.Intn(2) == 1 {
		opts.Algorithm = maxsat.LinearDescent
	}

	fail := func(step int, format string, args ...interface{}) *Divergence {
		d := divf("incremental", seed, fmt.Sprintf("step %d: %s", step, fmt.Sprintf(format, args...)))
		d.Files = map[string]string{"policies.txt": policy.Format(inst.Policies)}
		for host, text := range texts {
			d.Files[host+".cfg"] = text
		}
		return d
	}

	sess, err := cpr.NewSession(texts)
	if err != nil {
		return fail(0, "broken configs do not load: %v", err)
	}

	// Subnet prefixes of the instance, for ACL mutations.
	prefixes := subnetPrefixes(texts)

	for step := 1; step <= incrementalSteps; step++ {
		host, mutated, derr := mutateOneDevice(rng, texts, prefixes)
		if derr != nil {
			return fail(step, "mutation failed: %v", derr)
		}
		texts[host] = mutated

		next, err := sess.Delta(map[string]string{host: mutated})
		if err != nil {
			return fail(step, "incremental delta failed: %v", err)
		}
		cold, err := cpr.NewSession(texts)
		if err != nil {
			return fail(step, "cold load of mutated configs failed: %v", err)
		}
		sess = next

		// Verification verdicts must agree between the incrementally
		// derived system and the cold one.
		incPolicies, err := generate.RemapPolicies(inst.Policies, sess.System().Network)
		if err != nil {
			return fail(step, "policy remap (incremental) failed: %v", err)
		}
		coldPolicies, err := generate.RemapPolicies(inst.Policies, cold.System().Network)
		if err != nil {
			return fail(step, "policy remap (cold) failed: %v", err)
		}
		incViolated := policyStrings(sess.System().Verify(incPolicies))
		coldViolated := policyStrings(cold.System().Verify(coldPolicies))
		if !reflect.DeepEqual(incViolated, coldViolated) {
			return fail(step, "verification verdicts diverge:\nincremental: %v\ncold: %v", incViolated, coldViolated)
		}

		incOut, incErr := sess.Repair(incPolicies, opts)
		coldOut, coldErr := cold.Repair(coldPolicies, opts)
		if (incErr == nil) != (coldErr == nil) {
			return fail(step, "repair errors diverge: incremental=%v cold=%v", incErr, coldErr)
		}
		if incErr != nil {
			if incErr.Error() != coldErr.Error() {
				return fail(step, "repair error texts diverge: incremental=%v cold=%v", incErr, coldErr)
			}
			continue
		}
		if detail := diffRepairs(coldOut, incOut); detail != "" {
			return fail(step, "incremental repair diverges from fresh solve: %s", detail)
		}

		// Immediate replay: every sub-problem just solved (or reused) must
		// now come from the cache, byte-identically.
		again, err := sess.Repair(incPolicies, opts)
		if err != nil {
			return fail(step, "replay repair failed: %v", err)
		}
		if again.Result.Reused != len(again.Result.Stats) {
			return fail(step, "replay reused %d of %d sub-problems, want all",
				again.Result.Reused, len(again.Result.Stats))
		}
		if detail := diffRepairs(coldOut, again); detail != "" {
			return fail(step, "replayed repair diverges from fresh solve: %s", detail)
		}
	}
	return nil
}

// diffRepairs compares two repair outputs for byte-identity (modulo
// timing and replay markers), returning a description of the first
// difference or "".
func diffRepairs(fresh, inc *cpr.RepairOutput) string {
	if fresh.Solved() != inc.Solved() {
		return fmt.Sprintf("solved: fresh=%v incremental=%v", fresh.Solved(), inc.Solved())
	}
	if fresh.Result.Changes != inc.Result.Changes {
		return fmt.Sprintf("changes: fresh=%d incremental=%d", fresh.Result.Changes, inc.Result.Changes)
	}
	if fresh.Result.Degraded != inc.Result.Degraded || fresh.Result.Failed != inc.Result.Failed {
		return fmt.Sprintf("dispositions: fresh=%d/%d incremental=%d/%d (degraded/failed)",
			fresh.Result.Degraded, fresh.Result.Failed, inc.Result.Degraded, inc.Result.Failed)
	}
	fp, ip := planString(fresh), planString(inc)
	if fp != ip {
		return fmt.Sprintf("plans differ:\n--- fresh ---\n%s\n--- incremental ---\n%s", fp, ip)
	}
	if !reflect.DeepEqual(fresh.PatchedConfigs, inc.PatchedConfigs) {
		for host, want := range fresh.PatchedConfigs {
			if got := inc.PatchedConfigs[host]; got != want {
				return fmt.Sprintf("patched config %s differs:\n--- fresh ---\n%s--- incremental ---\n%s", host, want, got)
			}
		}
		return "patched config sets differ in keys"
	}
	return ""
}

func planString(out *cpr.RepairOutput) string {
	if out.Plan == nil {
		return ""
	}
	return out.Plan.String()
}

func policyStrings(ps []policy.Policy) []string {
	out := make([]string, 0, len(ps))
	for _, p := range ps {
		out = append(out, p.String())
	}
	return out
}

// subnetPrefixes collects the host-facing subnet prefixes declared in the
// config set, in deterministic order.
func subnetPrefixes(texts map[string]string) []netip.Prefix {
	var out []netip.Prefix
	for _, host := range sortedTextKeys(texts) {
		c, err := config.Parse(host, texts[host])
		if err != nil {
			continue
		}
		for _, is := range c.Interfaces {
			if is.Address.IsValid() && len(is.Description) > len(config.SubnetDescriptionPrefix) &&
				is.Description[:len(config.SubnetDescriptionPrefix)] == config.SubnetDescriptionPrefix {
				out = append(out, is.Address.Masked())
			}
		}
	}
	return out
}

func sortedTextKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// mutateOneDevice applies one random, always-loadable mutation to one
// device's configuration text and returns (host, new text). Candidate
// mutations are interface-cost changes, ACL deny toggles between subnet
// prefixes, and waypoint toggles — the same construct families the
// repair engine itself edits.
func mutateOneDevice(rng *rand.Rand, texts map[string]string, prefixes []netip.Prefix) (string, string, error) {
	hosts := sortedTextKeys(texts)
	// A mutation can be a no-op (e.g. removing an absent deny); retry a
	// few times so each step usually changes something.
	for attempt := 0; attempt < 8; attempt++ {
		host := hosts[rng.Intn(len(hosts))]
		c, err := config.Parse(host, texts[host])
		if err != nil {
			return "", "", err
		}
		var ifaces []*config.InterfaceStanza
		for _, is := range c.Interfaces {
			if !is.Shutdown && is.Address.IsValid() {
				ifaces = append(ifaces, is)
			}
		}
		if len(ifaces) == 0 {
			continue
		}
		intf := ifaces[rng.Intn(len(ifaces))]
		switch rng.Intn(4) {
		case 0:
			_, err = c.SetInterfaceCost(intf.Name, 1+rng.Intn(9))
		case 1:
			if len(prefixes) < 2 {
				continue
			}
			src := prefixes[rng.Intn(len(prefixes))]
			dst := prefixes[rng.Intn(len(prefixes))]
			dir := "in"
			if rng.Intn(2) == 1 {
				dir = "out"
			}
			_, err = c.AddACLDeny(intf.Name, dir, src, dst)
		case 2:
			if len(prefixes) < 2 {
				continue
			}
			src := prefixes[rng.Intn(len(prefixes))]
			dst := prefixes[rng.Intn(len(prefixes))]
			dir := "in"
			if rng.Intn(2) == 1 {
				dir = "out"
			}
			_, err = c.RemoveACLDeny(intf.Name, dir, src, dst)
		case 3:
			_, err = c.SetWaypoint(intf.Name, rng.Intn(2) == 1)
		}
		if err != nil {
			// Mutators reject some targets (e.g. no attached ACL); pick
			// another candidate.
			continue
		}
		mutated := c.Print()
		if mutated == texts[host] {
			continue
		}
		// The mutated set must still load (a parse/extract failure would
		// hit both sides identically but exercises nothing).
		trial := map[string]string{}
		for k, v := range texts {
			trial[k] = v
		}
		trial[host] = mutated
		if _, err := cpr.Load(trial); err != nil {
			continue
		}
		return host, mutated, nil
	}
	// All candidates degenerated to no-ops; re-submitting an unchanged
	// text is itself a valid (if boring) delta.
	host := hosts[rng.Intn(len(hosts))]
	return host, texts[host], nil
}
