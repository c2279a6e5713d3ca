package core

import (
	"fmt"
	"sort"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// problem is one MaxSMT sub-problem of the decomposition.
type problem struct {
	label    string
	tcs      []topology.TrafficClass
	policies []policy.Policy
	freeze   bool
	// realized is the sub-problem's repair, staged for the serial merge
	// in a copy-on-write clone of the original state (so it owns only the
	// problem's rows): the model extraction of a solve, the concretized
	// quotient repair of a compressed one (concretizePatch), or either
	// replayed from the solve cache. Only the acceptance gate sets it.
	realized *harc.State
	stat     ProblemStat
}

// dsts returns the problem's unique destination subnets.
func (pr *problem) dsts() []*topology.Subnet {
	seen := map[string]bool{}
	var out []*topology.Subnet
	for _, tc := range pr.tcs {
		if !seen[tc.Dst.Name] {
			seen[tc.Dst.Name] = true
			out = append(out, tc.Dst)
		}
	}
	return out
}

func uniqueTCs(ps []policy.Policy) []topology.TrafficClass {
	seen := map[string]bool{}
	var out []topology.TrafficClass
	add := func(tc topology.TrafficClass) {
		if tc.Src != nil && tc.Dst != nil && !seen[tc.Key()] {
			seen[tc.Key()] = true
			out = append(out, tc)
		}
	}
	for _, p := range ps {
		add(p.TC)
		if p.Kind == policy.Isolated {
			add(p.TC2)
		}
	}
	return out
}

// buildProblems decomposes the specification per Options.Granularity.
func buildProblems(h *harc.HARC, policies []policy.Policy, opts Options) ([]*problem, error) {
	var problems []*problem
	switch opts.Granularity {
	case AllTCs:
		problems = append(problems, &problem{
			label:    "all-tcs",
			tcs:      uniqueTCs(policies),
			policies: policies,
			freeze:   false,
		})
	case PerDst:
		groups := policy.GroupByDst(policies)
		// Destinations coupled by an isolation policy must be solved
		// together; collect the set of coupled destination names.
		coupledDst := map[string]bool{}
		for _, p := range policies {
			if p.Kind == policy.Isolated && p.TC.Dst.Name != p.TC2.Dst.Name {
				coupledDst[p.TC.Dst.Name] = true
				coupledDst[p.TC2.Dst.Name] = true
			}
		}
		var pc4Group []policy.Policy
		for _, name := range policy.SortedGroupNames(groups) {
			g := groups[name]
			merge := coupledDst[name]
			for _, p := range g {
				if p.Kind == policy.PrimaryPath {
					merge = true
				}
			}
			if merge {
				// Link costs are shared across destinations (PC4), and
				// isolation couples classes across destinations, so such
				// groups are merged into one problem.
				pc4Group = append(pc4Group, g...)
				continue
			}
			if len(policy.Violations(h, g)) == 0 {
				continue // no violated policy for this destination
			}
			problems = append(problems, &problem{
				label:    name,
				tcs:      uniqueTCs(g),
				policies: g,
				freeze:   true,
			})
		}
		if len(policy.Violations(h, pc4Group)) > 0 {
			problems = append(problems, &problem{
				label:    "pc4-merged",
				tcs:      uniqueTCs(pc4Group),
				policies: pc4Group,
				freeze:   true,
			})
		}
	default:
		return nil, fmt.Errorf("core: unknown granularity %d", opts.Granularity)
	}
	for _, pr := range problems {
		pr.stat.Label = pr.label
		pr.stat.TCs = len(pr.tcs)
		pr.stat.Policies = len(pr.policies)
	}
	return problems, nil
}

// scheduleOrder returns the problems largest-first (stable on the
// original order for ties), so the parallel fan-out never strands the
// biggest sub-problem at the tail of the schedule. Scheduling order is
// invisible in results: RepairCtx merges models in original problem
// order and sorts Stats by label.
func scheduleOrder(problems []*problem) []*problem {
	out := make([]*problem, len(problems))
	copy(out, problems)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].sizeHint() > out[j].sizeHint()
	})
	return out
}

// sizeHint estimates a sub-problem's encoding size for scheduling.
// Traffic classes dominate the variable count; policies break ties.
func (pr *problem) sizeHint() int { return len(pr.tcs)*16 + len(pr.policies) }
