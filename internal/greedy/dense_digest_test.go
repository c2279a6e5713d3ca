package greedy_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/generate"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// realisedDigest hashes everything a greedy repair returns: every row of
// the realised state, its costs, the change count and what stayed
// violated — or the error.
func realisedDigest(h *harc.HARC, policies []policy.Policy) string {
	sum := sha256.New()
	res, err := greedy.Repair(h, policies)
	if err != nil {
		fmt.Fprintf(sum, "error: %v", err)
		return hex.EncodeToString(sum.Sum(nil))
	}
	row := func(s bitset.Set) {
		var buf [8]byte
		for _, w := range s {
			binary.LittleEndian.PutUint64(buf[:], w)
			sum.Write(buf[:])
		}
		sum.Write([]byte{'|'})
	}
	st := res.State
	row(st.All)
	row(st.Waypoint)
	for _, rows := range [][]bitset.Set{st.Dst, st.TC, st.RouteFilter, st.Static} {
		for _, r := range rows {
			row(r)
		}
	}
	keys := make([]string, 0, len(st.Cost))
	for k := range st.Cost {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sum, "%s=%d;", k, st.Cost[k])
	}
	fmt.Fprintf(sum, "changes=%d clean=%v still=%v", res.Changes, res.Clean, res.StillViolated)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestRealisedStateMatchesDenseETGs pins the greedy baseline — whose
// repairs are the min-cuts and disjoint paths the graph layer returns,
// turned into state edits — to what it realised when every ETG was a
// dense graph of its own. The digests in testdata/dense_digests.json
// were recorded by this test's realisedDigest at commit a370659, the last
// with dense ETGs: per network, the instance's own non-PC4 policies in one
// repair, then an always-blocked, an always-waypoint and a 2-reachable
// policy, each alone, on a sample of classes, so that all three repairs
// run whatever the instance happens to violate. A view that returned a
// different cut or path of equal size would move them.
func TestRealisedStateMatchesDenseETGs(t *testing.T) {
	data, err := os.ReadFile("testdata/dense_digests.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	type instance struct {
		name     string
		net      *topology.Network
		policies []policy.Policy
	}
	insts := []instance{{"figure2a", topology.Figure2a(), nil}}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		insts = append(insts, instance{fmt.Sprintf("corpus-%02d", i), inst.Network, inst.Policies})
	}
	ft4, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft4, 5, 8); err != nil {
		t.Fatal(err)
	}
	insts = append(insts, instance{"fattree-k4-broken", ft4.Network, ft4.Policies})
	if !testing.Short() {
		ft8, err := generate.Preset("fattree-k8", 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft8, 11, 5); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, instance{"fattree-k8-broken", ft8.Network, ft8.Policies})
	}

	got := map[string]string{}
	for _, inst := range insts {
		h := harc.Build(inst.net)
		var own []policy.Policy
		for _, p := range inst.policies {
			if p.Kind != policy.PrimaryPath {
				own = append(own, p)
			}
		}
		// One digest per network, over its repairs' digests in order.
		sum := sha256.New()
		fmt.Fprintln(sum, "spec", realisedDigest(h, own))
		step := (len(h.TCs) + 11) / 12
		for r := 0; r < len(h.TCs); r += step {
			tc := h.TCs[r]
			for _, p := range []policy.Policy{
				{Kind: policy.AlwaysBlocked, TC: tc},
				{Kind: policy.AlwaysWaypoint, TC: tc},
				{Kind: policy.KReachable, TC: tc, K: 2},
			} {
				fmt.Fprintln(sum, p, realisedDigest(h, []policy.Policy{p}))
			}
		}
		got[inst.name] = hex.EncodeToString(sum.Sum(nil))
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, recorded %q", name, d, want[name])
		}
	}
	if !testing.Short() && len(got) != len(want) {
		t.Errorf("%d digests computed, %d recorded", len(got), len(want))
	}
}
