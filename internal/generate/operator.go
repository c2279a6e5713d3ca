package generate

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/translate"
)

// OperatorRepair is a simulated hand-written repair: the baseline CPR is
// compared against in Figure 11. Operators repair the same violations
// with plausible but coarser strategies — aggregate ACL entries when
// every source toward a destination is blocked, spine-resident rules,
// removal of every line the incident touched — and their repairs are
// validated against the specification before being reported.
type OperatorRepair struct {
	Lines       int
	ImpactedTCs int
	Configs     map[string]*config.Config
}

// SimulateOperator produces a hand-written repair for the instance's
// current violations. The returned repair is always policy-compliant;
// strategies that would violate the specification fall back to CPR-like
// precise edits.
func SimulateOperator(inst *Instance, seed int64) (*OperatorRepair, error) {
	rng := rand.New(rand.NewSource(seed))
	violated := inst.Violations()
	cfgs, err := translate.CloneConfigs(inst.Configs)
	if err != nil {
		return nil, err
	}
	lines := 0

	// Group PC1 violations by destination to enable aggregate repairs.
	pc1ByDst := map[string][]policy.Policy{}
	var others []policy.Policy
	for _, p := range violated {
		if p.Kind == policy.AlwaysBlocked {
			pc1ByDst[p.TC.Dst.Name] = append(pc1ByDst[p.TC.Dst.Name], p)
		} else {
			others = append(others, p)
		}
	}

	// All PC1 policies per destination in the full spec (to test whether
	// an aggregate any->dst deny is safe).
	pc1Spec := map[string]int{}
	tcsPerDst := map[string]int{}
	for _, p := range inst.Policies {
		tcsPerDst[p.TC.Dst.Name]++
		if p.Kind == policy.AlwaysBlocked {
			pc1Spec[p.TC.Dst.Name]++
		}
	}

	hostACLFor := func(dstName string) (*config.Config, *config.ACLStanza, string, error) {
		for devName, cfg := range cfgs {
			for _, is := range cfg.Interfaces {
				if is.Description == config.SubnetDescriptionPrefix+dstName {
					acl := cfg.ACL(is.OutACL)
					if acl == nil {
						return nil, nil, "", fmt.Errorf("generate: subnet %s has no host ACL", dstName)
					}
					return cfg, acl, devName, nil
				}
			}
		}
		return nil, nil, "", fmt.Errorf("generate: subnet %s not found in configs", dstName)
	}

	dstNames := make([]string, 0, len(pc1ByDst))
	for name := range pc1ByDst {
		dstNames = append(dstNames, name)
	}
	sort.Strings(dstNames)
	for _, dstName := range dstNames {
		group := pc1ByDst[dstName]
		_, acl, _, err := hostACLFor(dstName)
		if err != nil {
			return nil, err
		}
		dstPrefix := group[0].TC.Dst.Prefix
		if pc1Spec[dstName] == tcsPerDst[dstName] {
			// Every class toward this destination must be blocked: the
			// operator writes one aggregate deny any->dst — fewer lines
			// than CPR's per-class rules but it touches every class
			// toward dst (Figure 10's phenomenon, inverted).
			entry := config.ACLEntryLine{Permit: false, Dst: dstPrefix}
			acl.Entries = trimExactPermits(acl.Entries, dstPrefix)
			acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
			lines++
			continue
		}
		// Otherwise per-pair denies; some operators place them on every
		// spine instead of the leaf (more lines, same behavior).
		onSpines := rng.Intn(2) == 0
		for _, p := range group {
			if onSpines {
				for devName, cfg := range cfgs {
					if !strings.HasPrefix(devName, "spine") {
						continue
					}
					sa := cfg.ACL("SPINE-ACL")
					if sa == nil {
						continue
					}
					entry := config.ACLEntryLine{Permit: false, Src: p.TC.Src.Prefix, Dst: p.TC.Dst.Prefix}
					sa.Entries = append([]config.ACLEntryLine{entry}, sa.Entries...)
					lines++
				}
				// Same-leaf traffic bypasses the spines; ensure blocking.
				if !crossesSpine(inst, p) {
					entry := config.ACLEntryLine{Permit: false, Src: p.TC.Src.Prefix, Dst: p.TC.Dst.Prefix}
					acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
					lines++
				}
			} else {
				entry := config.ACLEntryLine{Permit: false, Src: p.TC.Src.Prefix, Dst: p.TC.Dst.Prefix}
				acl.Entries = append([]config.ACLEntryLine{entry}, acl.Entries...)
				lines++
			}
		}
	}

	// PC3 violations: the operator undoes the incident wholesale —
	// removing every deny matching the pair wherever it appears (leaf
	// and all spines), even when restoring two disjoint paths would do.
	for _, p := range others {
		if p.Kind != policy.KReachable {
			continue
		}
		for _, cfg := range cfgs {
			for _, acl := range cfg.ACLs {
				removed := removeDenyCount(acl, p.TC.Src.Prefix, p.TC.Dst.Prefix)
				lines += removed
			}
		}
	}

	// Measure the repair the way the paper measures hand-written repairs:
	// by diffing the configuration snapshots (§8.3). The strategy-level
	// counter is kept as a cross-check.
	diff := config.DiffConfigs(inst.Configs, cfgs)
	if len(diff) != lines {
		return nil, fmt.Errorf("generate: operator accounting mismatch: counted %d lines, snapshot diff has %d:\n%s",
			lines, len(diff), config.FormatDiff(diff))
	}
	op := &OperatorRepair{Lines: len(diff), Configs: cfgs}

	// Validate: the hand-written repair must satisfy the full spec.
	repaired := &Instance{Name: inst.Name + "-operator", Configs: cfgs, Policies: inst.Policies}
	if err := repaired.Rebuild(); err != nil {
		return nil, err
	}
	if bad := repaired.Violations(); len(bad) != 0 {
		return nil, fmt.Errorf("generate: operator repair left %d violations (first: %s)", len(bad), bad[0])
	}

	// Impact: compare HARC states before and after the operator's edits.
	origH := inst.Harc()
	origState := harc.StateOf(origH)
	newState := harc.StateOf(repaired.Harc())
	op.ImpactedTCs = countImpacted(origH, origState, newState)
	return op, nil
}

// crossesSpine reports whether the traffic class's endpoints sit on
// different leaves (so its paths traverse a spine).
func crossesSpine(inst *Instance, p policy.Policy) bool {
	leafOf := func(subnetName string) string {
		for devName, cfg := range inst.Configs {
			for _, is := range cfg.Interfaces {
				if is.Description == config.SubnetDescriptionPrefix+subnetName {
					return devName
				}
			}
		}
		return ""
	}
	return leafOf(p.TC.Src.Name) != leafOf(p.TC.Dst.Name)
}

// trimExactPermits removes permit entries that specifically target dst
// (left over from the breaker) so an aggregate deny takes effect.
func trimExactPermits(entries []config.ACLEntryLine, dst netip.Prefix) []config.ACLEntryLine {
	out := entries[:0]
	for _, e := range entries {
		if e.Permit && e.Dst == dst {
			continue
		}
		out = append(out, e)
	}
	return out
}

// removeDenyCount removes every deny exactly matching (src, dst) and
// returns how many were removed.
func removeDenyCount(acl *config.ACLStanza, src, dst netip.Prefix) int {
	if acl == nil {
		return 0
	}
	removed := 0
	out := acl.Entries[:0]
	for _, e := range acl.Entries {
		if !e.Permit && e.Src == src && e.Dst == dst {
			removed++
			continue
		}
		out = append(out, e)
	}
	acl.Entries = out
	return removed
}

// countImpacted counts traffic classes whose tcETG presence differs
// between the two states. The operator's edits keep the slot table's
// shape, so rows found by name compare word for word; if they ever did
// not, every class counts as impacted.
func countImpacted(h *harc.HARC, a, b *harc.State) int {
	if !a.SameShape(b) {
		return len(h.TCs)
	}
	count := 0
	for _, tc := range h.TCs {
		if !a.TCBits(tc).Equal(b.TCBits(tc)) {
			count++
		}
	}
	return count
}
