package policy_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// verdictNetwork is a broken k=4 fat-tree that violates policies of every
// kind, so every class of check has classes that hold and classes that
// fail.
func verdictNetwork(t *testing.T) (*topology.Network, []policy.Policy) {
	t.Helper()
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 5, 8); err != nil {
		t.Fatal(err)
	}
	return inst.Network, inst.Policies
}

// everyCheck lists, for every class of h, a PC1, a PC2 and a PC3 check at
// each K from 0 to 4, then the instance's own policies (PC4 among them)
// and isolation between neighbouring classes.
func everyCheck(h *harc.HARC, extra []policy.Policy) []policy.Policy {
	var out []policy.Policy
	for i, tc := range h.TCs {
		out = append(out, policy.Policy{Kind: policy.AlwaysBlocked, TC: tc}, policy.Policy{Kind: policy.AlwaysWaypoint, TC: tc})
		for k := 0; k <= 4; k++ {
			out = append(out, policy.Policy{Kind: policy.KReachable, TC: tc, K: k})
		}
		out = append(out, policy.Policy{Kind: policy.Isolated, TC: tc, TC2: h.TCs[(i+1)%len(h.TCs)]})
	}
	return append(out, extra...)
}

// uncached answers every check on a clone of the HARC's state, which the
// record never serves.
func uncached(h *harc.HARC, ps []policy.Policy) []bool {
	c := policy.NewStateChecker(h, harc.StateOf(h))
	out := make([]bool, len(ps))
	for i, p := range ps {
		out[i] = c.Check(p)
	}
	return out
}

// TestVerdictsMatchCheck holds the record of verdicts on a HARC's own
// state to a check made afresh, for every policy kind and K from 0 to 4,
// with the record filled in ascending, descending and shuffled order — so
// that a K answered from another K's verdict is checked both ways — and
// each check asked twice. A PC1, PC2 or PC3 check must leave its verdict
// recorded, and answering from the record must allocate nothing.
func TestVerdictsMatchCheck(t *testing.T) {
	n, extra := verdictNetwork(t)
	want := map[string]bool{}
	ref := everyCheck(harc.Build(n), extra)
	for i, v := range uncached(harc.Build(n), ref) {
		want[ref[i].String()] = v
	}
	rng := rand.New(rand.NewSource(1))
	for _, order := range []string{"ascending", "descending", "shuffled"} {
		h := harc.Build(n)
		ps := everyCheck(h, extra)
		switch order {
		case "descending":
			for i, j := 0, len(ps)-1; i < j; i, j = i+1, j-1 {
				ps[i], ps[j] = ps[j], ps[i]
			}
		case "shuffled":
			rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		}
		for pass := 0; pass < 2; pass++ {
			for _, p := range ps {
				if got := policy.Check(h, p); got != want[p.String()] {
					t.Fatalf("%s, pass %d: %s = %v, a fresh check says %v", order, pass, p, got, want[p.String()])
				}
				r := h.TCRow(p.TC)
				var known bool
				switch p.Kind {
				case policy.AlwaysBlocked:
					_, known = h.Verdicts().Flag(r, harc.VerdictBlocked)
				case policy.AlwaysWaypoint:
					_, known = h.Verdicts().Flag(r, harc.VerdictWaypoint)
				case policy.KReachable:
					_, known = h.Verdicts().AtLeast(r, p.K)
				default:
					known = true
				}
				if !known {
					t.Fatalf("%s: %s checked, but its verdict is not recorded", order, p)
				}
			}
		}
		// A recorded verdict is a lookup, and a lookup allocates nothing.
		for _, p := range everyCheck(h, nil)[:7] { // the first class's PC1, PC2 and PC3 at K 0..4
			if allocs := testing.AllocsPerRun(20, func() { policy.Check(h, p) }); allocs != 0 {
				t.Errorf("%s: answering %s from the record allocates %.0f times", order, p, allocs)
			}
		}
	}
}

// TestVerdictsFilledConcurrently fills one HARC's record from several
// goroutines at once — two parallel Violations sweeps (what System.Verify
// and VerifyCtx run, each fanning out over every core) beside two
// per-policy Check loops in other orders — and holds every answer to a
// fresh check. Meaningful under -race.
func TestVerdictsFilledConcurrently(t *testing.T) {
	n, extra := verdictNetwork(t)
	h := harc.Build(n)
	ps := everyCheck(h, extra)
	want := uncached(harc.Build(n), ps)
	var wantBad []string
	for i, ok := range want {
		if !ok {
			wantBad = append(wantBad, ps[i].String())
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			bad := policy.Violations(h, ps)
			if len(bad) != len(wantBad) {
				t.Errorf("Violations found %d, a fresh sweep %d", len(bad), len(wantBad))
				return
			}
			for i, p := range bad {
				if p.String() != wantBad[i] {
					t.Errorf("Violations[%d] = %s, a fresh sweep has %s", i, p, wantBad[i])
				}
			}
		}()
		go func(seed int64) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(seed)).Perm(len(ps)) {
				if got := policy.Check(h, ps[i]); got != want[i] {
					t.Errorf("Check(%s) = %v beside the sweeps, a fresh check says %v", ps[i], got, want[i])
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestRepairedStateNeverTouchesVerdicts: a check on any state other than
// the HARC's own neither reads nor writes the HARC's record. The other
// state here blocks every class, so that every PC1 and PC2 check holds and
// every PC3 check at K ≥ 1 fails on it, while the HARC's own state has
// classes of each verdict. Checks on it run first on a fresh HARC — a
// record they wrote would then answer the own-state checks wrongly — and
// again once the own-state checks have filled the record, which they must
// not read.
func TestRepairedStateNeverTouchesVerdicts(t *testing.T) {
	n, _ := verdictNetwork(t)
	h := harc.Build(n)
	var ps []policy.Policy
	for _, p := range everyCheck(h, nil) {
		if p.Kind != policy.Isolated {
			ps = append(ps, p)
		}
	}
	own := uncached(harc.Build(n), ps)
	blocked := harc.StateOf(h)
	for r := range blocked.TC {
		blocked.SetTCRow(r, bitset.New(len(h.Slots)))
	}
	onBlocked := policy.NewStateChecker(h, blocked)
	checkBlocked := func(when string) {
		for _, p := range ps {
			if want := p.Kind != policy.KReachable || p.K < 1; onBlocked.Check(p) != want {
				t.Fatalf("%s: %s on the all-blocked state = %v, want %v", when, p, !want, want)
			}
		}
	}
	checkBlocked("before any own-state check")
	differ := 0
	for i, p := range ps {
		if got := policy.Check(h, p); got != own[i] {
			t.Fatalf("after checks on another state: own-state %s = %v, a fresh check says %v", p, got, own[i])
		}
		if want := p.Kind != policy.KReachable || p.K < 1; own[i] != want {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("no check answers differently on the two states; the test shows nothing")
	}
	checkBlocked("after the own-state checks")
}
