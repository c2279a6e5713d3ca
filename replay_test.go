package cpr

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/policy"
	"repro/internal/translate"
)

// loadInstance loads a generated workload the way the cpr command loads
// a cprgen directory: from each configuration's printed text, with the
// policies re-parsed against the loaded network.
func loadInstance(t *testing.T, inst *generate.Instance) (*System, map[string]string, []Policy) {
	t.Helper()
	texts := make(map[string]string, len(inst.Configs))
	for name, c := range inst.Configs {
		texts[name] = c.Print()
	}
	sys, err := Load(texts)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sys.ParsePolicies(policy.Format(inst.Policies))
	if err != nil {
		t.Fatal(err)
	}
	return sys, texts, ps
}

// checkPlanReplays applies the plan's lines, then its waypoint lines,
// through config.Config.Apply to a fresh parse of the input texts and
// requires the result to print as the repair's PatchedConfigs, byte for
// byte: the patched configurations are exactly the plan, applied in
// order.
func checkPlanReplays(t *testing.T, label string, texts map[string]string, rep *RepairOutput) {
	t.Helper()
	if rep.Plan == nil {
		t.Fatalf("%s: the repair has no plan", label)
	}
	cfgs := make(map[string]*config.Config, len(texts))
	for name, text := range texts {
		c, err := config.Parse(name, text)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[c.Hostname] = c
	}
	if err := translate.ApplyPlan(cfgs, rep.Plan); err != nil {
		t.Fatalf("%s: the plan does not replay: %v", label, err)
	}
	got := make(map[string]string, len(cfgs))
	for host, c := range cfgs {
		got[host] = c.Print()
	}
	if reflect.DeepEqual(got, rep.PatchedConfigs) {
		return
	}
	hosts := make([]string, 0, len(got))
	for host := range got {
		hosts = append(hosts, host)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if want, ok := rep.PatchedConfigs[host]; !ok || got[host] != want {
			t.Fatalf("%s: device %s replayed from the plan (%d lines) differs from its patched text:\n%s\n--- patched ---\n%s",
				label, host, rep.Plan.NumLines(), got[host], want)
		}
	}
	t.Fatalf("%s: the patched configurations name %d devices, the plan's replay %d", label, len(rep.PatchedConfigs), len(got))
}

// TestEveryPlanReplays holds every repair of three workloads to
// checkPlanReplays: the 24-network data-center corpus, the dc-256 preset
// (seed 7, where compression engages) and the broken k=4 fat-tree of
// seed 11 (every policy class, PC4 included) at both granularities.
func TestEveryPlanReplays(t *testing.T) {
	type workload struct {
		label string
		inst  *generate.Instance
		opts  Options
	}
	var cases []workload
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		cases = append(cases, workload{fmt.Sprintf("corpus[%d] %s", i, inst.Name), inst, DefaultOptions()})
	}
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, workload{"dc-256 seed 7", dc, DefaultOptions()})
	for _, g := range []core.Granularity{core.PerDst, core.AllTCs} {
		ft, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 3, PC2: 3, PC3: 3, PC4: 3, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft, 12, 3); err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Granularity = g
		cases = append(cases, workload{fmt.Sprintf("fattree k=4 seed 11 %v", g), ft, opts})
	}
	lines, waypoints := 0, 0
	for _, c := range cases {
		sys, texts, ps := loadInstance(t, c.inst)
		rep, err := sys.Repair(ps, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if !rep.Solved() {
			t.Fatalf("%s: repair unsolved", c.label)
		}
		checkPlanReplays(t, c.label, texts, rep)
		lines += rep.Plan.NumLines()
		waypoints += len(rep.Plan.Waypoints)
	}
	if lines == 0 {
		t.Fatal("no workload needed a single changed line: the test replayed nothing")
	}
	t.Logf("%d repairs replayed: %d lines, %d waypoint changes", len(cases), lines, waypoints)
}
