package policy_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// sweepInstances is the population the sweep is held to its checks on: the
// broken fat-tree with a check of every kind at K 0..4 per class, corpus
// networks with every class's PC1 and PC3 at K 1..3, and dc-256 with its
// own policies.
func sweepInstances(t *testing.T) map[string]struct {
	net *topology.Network
	ps  func(*harc.HARC) []policy.Policy
} {
	t.Helper()
	type inst = struct {
		net *topology.Network
		ps  func(*harc.HARC) []policy.Policy
	}
	out := map[string]inst{}
	n, extra := verdictNetwork(t)
	out["fattree-k4-broken"] = inst{n, func(h *harc.HARC) []policy.Policy { return everyCheck(h, extra) }}
	perClass := func(h *harc.HARC) []policy.Policy {
		var ps []policy.Policy
		for _, tc := range h.TCs {
			ps = append(ps, policy.Policy{Kind: policy.AlwaysBlocked, TC: tc})
			for k := 1; k <= 3; k++ {
				ps = append(ps, policy.Policy{Kind: policy.KReachable, TC: tc, K: k})
			}
		}
		return ps
	}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 6, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus {
		out[c.Name] = inst{c.Network, perClass}
	}
	if !testing.Short() {
		dc, err := generate.Preset("dc-256", 7)
		if err != nil {
			t.Fatal(err)
		}
		out["dc-256"] = inst{dc.Network, func(*harc.HARC) []policy.Policy { return dc.Policies }}
	}
	return out
}

// TestSweepMatchesChecks holds StateChecker.Violations to a check per
// policy: on a fresh HARC's own state at one and two workers (after which
// the record must answer every check as a fresh check does), on a clone of
// it (which must leave the record alone), and on a state with random
// destination and class bits cleared, where many classes are no longer
// clean and the trees differ from the HARC's.
func TestSweepMatchesChecks(t *testing.T) {
	for name, inst := range sweepInstances(t) {
		t.Run(name, func(t *testing.T) {
			ps := inst.ps(harc.Build(inst.net))
			bad := func(ok []bool) []string {
				var out []string
				for i, holds := range ok {
					if !holds {
						out = append(out, ps[i].String())
					}
				}
				return out
			}
			same := func(what string, got []policy.Policy, want []string) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: %d violations, the checks find %d", what, len(got), len(want))
				}
				for i, p := range got {
					if p.String() != want[i] {
						t.Fatalf("%s: violation %d is %s, the checks say %s", what, i, p, want[i])
					}
				}
			}
			want := bad(uncached(harc.Build(inst.net), ps))
			for _, workers := range []int{1, 2} {
				h := harc.Build(inst.net)
				got, err := policy.NewStateChecker(h, nil).Violations(context.Background(), ps, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				same("own state", got, want)
				for _, p := range ps {
					if r := h.TCRow(p.TC); p.Kind == policy.KReachable && p.K >= 1 {
						if _, known := h.Verdicts().AtLeast(r, p.K); !known {
							t.Fatalf("%s swept, but its verdict is not recorded", p)
						}
					}
				}
				same("own state, from the record", policy.Violations(h, ps), want)
			}

			h := harc.Build(inst.net)
			got, err := policy.NewStateChecker(h, harc.StateOf(h)).Violations(context.Background(), ps, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			same("clone", got, want)
			for r := range h.TCs {
				if _, known := h.Verdicts().AtLeast(r, 1); known {
					t.Fatalf("a sweep of another state recorded a verdict for %s", h.TCs[r])
				}
			}

			edited := harc.StateOf(h)
			rng := rand.New(rand.NewSource(int64(len(name))))
			for i := 0; i < len(h.Slots); i++ {
				id := rng.Intn(len(h.Slots))
				if d := rng.Intn(len(h.Dsts)); edited.Dst[d].Has(id) && rng.Intn(4) == 0 {
					edited.SetDst(d, id, false)
				}
				if r := rng.Intn(len(h.TCs)); edited.TC[r].Has(id) {
					edited.SetTC(r, id, false)
				}
			}
			c := policy.NewStateChecker(h, edited)
			ok := make([]bool, len(ps))
			for i, p := range ps {
				ok[i] = c.Check(p)
			}
			got, err = c.Violations(context.Background(), ps, nil, 2)
			if err != nil {
				t.Fatal(err)
			}
			same("edited state", got, bad(ok))
		})
	}
}

// TestSweepCancelled: a sweep under a cancelled context stops and returns
// the context's error, on the HARC's own state and on another.
func TestSweepCancelled(t *testing.T) {
	n, extra := verdictNetwork(t)
	h := harc.Build(n)
	ps := everyCheck(h, extra)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, st := range []*harc.State{nil, harc.StateOf(h)} {
		if _, err := policy.NewStateChecker(h, st).Violations(ctx, ps, nil, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("Violations under a cancelled context: err = %v, want context.Canceled", err)
		}
	}
}
