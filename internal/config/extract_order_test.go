package config_test

import (
	"net/netip"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/generate"
)

// TestExtractLinkOrder: Extract lays links down in the order of their
// prefixes' text. It formats each prefix once and sorts by the keys; the
// order must be the one a comparator formatting both prefixes per
// comparison gives, on dc-256 and on every corpus network.
func TestExtractLinkOrder(t *testing.T) {
	dc256, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range append(corpus, dc256) {
		names := make([]string, 0, len(inst.Configs))
		for name := range inst.Configs {
			names = append(names, name)
		}
		sort.Strings(names)
		cfgs := make([]*config.Config, len(names))
		for i, name := range names {
			cfgs[i] = inst.Configs[name]
		}
		n, err := config.Extract(cfgs)
		if err != nil {
			t.Fatalf("%s: %v", inst.Name, err)
		}
		if len(n.Links) == 0 {
			t.Fatalf("%s: no links", inst.Name)
		}
		got := make([]string, len(n.Links))
		nets := make([]netip.Prefix, len(n.Links))
		for i, l := range n.Links {
			nets[i] = l.A.Prefix.Masked()
			got[i] = nets[i].String()
		}
		sort.Slice(nets, func(i, j int) bool { return nets[i].String() < nets[j].String() })
		want := make([]string, len(nets))
		for i, p := range nets {
			want[i] = p.String()
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: link %d is %s, the String comparator puts %s there", inst.Name, i, got[i], want[i])
			}
		}
	}
}
