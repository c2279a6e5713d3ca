package config_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/generate"
)

// grownRouter is the configuration examples/grow cables to Figure 2a's
// router C: a new router whose uplink is not yet OSPF-active.
const grownRouter = `hostname D
!
interface Ethernet0/0
 description Link-to-C
 ip address 10.0.4.4 255.255.255.0
!
interface Ethernet0/1
 description Subnet-V
 ip address 10.5.0.1 255.255.255.0
!
router ospf 1
 redistribute connected
 passive-interface Ethernet0/0
 network 10.0.4.0 0.0.0.255 area 0
`

// FuzzParseConfig holds the configuration parser, the input boundary of
// every load, to "a labeled error, never a panic": a text either parses —
// and then its printed form parses back to the same configuration, and
// extracting the one device it describes answers with a network or an
// error — or it is refused with a ParseError naming the file and a line
// of it. Seeds are the configurations the examples load (Figure 2a's and
// the grown router), the printer/parser round-trip corpus (generated
// fat-trees, intact and broken) and testdata/fuzz/FuzzParseConfig.
func FuzzParseConfig(f *testing.F) {
	for _, text := range config.Figure2aConfigs() {
		f.Add(text)
	}
	f.Add(grownRouter)
	for seed := int64(1); seed <= 2; seed++ {
		inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, SubnetsPerEdge: 1, PC1: 1, PC2: 1, PC3: 1, PC4: 1, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		if err := generate.BreakFatTree(inst, seed+100, 2); err != nil {
			f.Fatal(err)
		}
		for _, name := range []string{"core0", "agg0-0", "edge0-0"} {
			f.Add(inst.Configs[name].Print())
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		const file = "fuzz.cfg"
		c, err := config.Parse(file, text)
		if err != nil {
			var pe *config.ParseError
			if !errors.As(err, &pe) || pe.File != file || pe.Line < 1 || pe.Line > strings.Count(text, "\n")+1 {
				t.Fatalf("error %q (%T) does not name the file and one of its lines", err, err)
			}
			return
		}
		printed := c.Print()
		again, err := config.Parse(file, printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("printed form parses to another configuration:\n%s", printed)
		}
		config.Extract([]*config.Config{c})
	})
}
