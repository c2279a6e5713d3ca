package config_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/translate"
)

// textNetworks returns the configurations TestTextMatchesReference holds
// to the references, by network: Figure 2a, the 24-network corpus, dc-256
// at seed 7, and fat-trees k = 4 at seeds 1–5, intact and broken.
func textNetworks(t testing.TB) map[string]map[string]*config.Config {
	t.Helper()
	fig := map[string]*config.Config{}
	for host, text := range config.Figure2aConfigs() {
		c, err := config.Parse(host+".cfg", text)
		if err != nil {
			t.Fatal(err)
		}
		fig[host] = c
	}
	nets := map[string]map[string]*config.Config{"figure2a": fig, "dc-256": dc256Configs(t)}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		nets[fmt.Sprintf("corpus-%02d", i)] = inst.Configs
	}
	for seed := int64(1); seed <= 5; seed++ {
		inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 1, PC2: 1, PC3: 1, PC4: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		intact := map[string]*config.Config{}
		for host, c := range inst.Configs {
			intact[host] = c.Clone()
		}
		nets[fmt.Sprintf("fattree-%d", seed)] = intact
		if err := generate.BreakFatTree(inst, seed+100, 2); err != nil {
			t.Fatal(err)
		}
		nets[fmt.Sprintf("fattree-%d-broken", seed)] = inst.Configs
	}
	return nets
}

func dc256Configs(t testing.TB) map[string]*config.Config {
	t.Helper()
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Configs
}

// TestTextMatchesReference holds the appending printer and the in-place
// parser to the fmt printer and the Split/Fields parser they replaced:
// Print is byte-identical, and Parse of the printed form returns the same
// configuration, on every device of every network textNetworks lists.
func TestTextMatchesReference(t *testing.T) {
	devices := 0
	for name, cfgs := range textNetworks(t) {
		for host, c := range cfgs {
			text := c.Print()
			if want := config.ReferencePrint(c); text != want {
				t.Fatalf("%s/%s: Print differs from the reference:\n--- reference ---\n%s--- Print ---\n%s", name, host, want, text)
			}
			got, err := config.Parse(host, text)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, host, err)
			}
			want, err := config.ReferenceParse(host, text)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", name, host, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: Parse differs from the reference", name, host)
			}
			devices++
		}
	}
	t.Logf("%d devices", devices)
}

// textOps are the three text operations over a network's configurations
// in a fixed order, as the budget test and the benchmark run them.
type textOps struct {
	cfgs  map[string]*config.Config
	hosts []string
	texts []string
}

func newTextOps(cfgs map[string]*config.Config) *textOps {
	o := &textOps{cfgs: cfgs}
	for host := range cfgs {
		o.hosts = append(o.hosts, host)
	}
	sort.Strings(o.hosts)
	for _, host := range o.hosts {
		o.texts = append(o.texts, cfgs[host].Print())
	}
	return o
}

func (o *textOps) parse(tb testing.TB) {
	for i, host := range o.hosts {
		if _, err := config.Parse(host, o.texts[i]); err != nil {
			tb.Fatal(err)
		}
	}
}

func (o *textOps) print() {
	for _, host := range o.hosts {
		o.cfgs[host].Print()
	}
}

func (o *textOps) clone(tb testing.TB) {
	if _, err := translate.CloneConfigs(o.cfgs); err != nil {
		tb.Fatal(err)
	}
}

// TestTextAllocBudget is the allocation gate on the text layer, over
// dc-256's 256 configurations. Parse allocates the AST (a stanza per
// block and the lists it grows) and one field array per configuration;
// Print one buffer and its string per configuration; CloneConfigs the
// map and, per configuration, one backing array per kind of stanza, the
// pointers into it and each list. The counts repeat exactly, and the
// budgets sit about 4 % above the measured values: Parse 4,846
// allocations and 0.55 MB, Print 512 and 1.07 MB, CloneConfigs 2,000 and
// 0.42 MB. The code they replaced made 22,977 and 1.60 MB (Parse with
// strings.Split and strings.Fields), 27,447 and 1.63 MB (Print with fmt)
// and 50,428 and 3.24 MB (a clone by Print and Parse).
// Raising a budget needs a reason in the commit that does it.
func TestTextAllocBudget(t *testing.T) {
	o := newTextOps(dc256Configs(t))
	for _, tc := range []struct {
		name     string
		run      func()
		budget   float64
		budgetMB float64
	}{
		{"Parse", func() { o.parse(t) }, 5040, 0.57},
		{"Print", o.print, 532, 1.11},
		{"CloneConfigs", func() { o.clone(t) }, 2080, 0.44},
	} {
		got := testing.AllocsPerRun(3, tc.run)
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tc.run()
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
		t.Logf("%s: %.0f allocs and %.2f MB over dc-256 (budgets %.0f and %.2f)", tc.name, got, mb, tc.budget, tc.budgetMB)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs over dc-256, budget %.0f", tc.name, got, tc.budget)
		}
		if mb > tc.budgetMB {
			t.Errorf("%s: %.2f MB over dc-256, budget %.2f", tc.name, mb, tc.budgetMB)
		}
	}
}

// BenchmarkConfigText times the text layer over dc-256's 256
// configurations: parsing every printed configuration, printing every
// configuration, and cloning them all with translate.CloneConfigs.
func BenchmarkConfigText(b *testing.B) {
	o := newTextOps(dc256Configs(b))
	b.Run("Parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.parse(b)
		}
	})
	b.Run("Print", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.print()
		}
	})
	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.clone(b)
		}
	})
}

// BenchmarkSetInterfaceCost times one configuration edit through Apply:
// setting an interface's cost back and forth on a Figure 2a router.
func BenchmarkSetInterfaceCost(b *testing.B) {
	c, err := config.Parse("A.cfg", config.Figure2aConfigs()["A"])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.SetInterfaceCost("Ethernet0/1", 2+i%2); err != nil {
			b.Fatal(err)
		}
	}
}
