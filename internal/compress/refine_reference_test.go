package compress

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/generate"
	"repro/internal/topology"
)

// The refinement Prepare replaced, kept as the reference: every signature
// rendered from the network on every call — each interface's attributes
// for both ends of every edge in every round. Class numbering follows the
// sorted signature strings, so Prepared must reproduce them byte for byte;
// TestPreparedMatchesPerCallReference holds it to that.

func refRefine(n *topology.Network, relevant map[*topology.Subnet]bool, concrete map[string]bool) *partition {
	devs := n.Devices()
	sigs := make(map[string]string, len(devs))
	for _, d := range devs {
		sigs[d.Name] = refSeedSig(d, relevant, concrete)
	}
	part := groupBySig(devs, sigs)
	for {
		for _, d := range devs {
			sigs[d.Name] = refRoundSig(d, part.classOf)
		}
		next := groupBySig(devs, sigs)
		if len(next.classes) == len(part.classes) {
			return next
		}
		part = next
	}
}

func refSeedSig(d *topology.Device, relevant map[*topology.Subnet]bool, concrete map[string]bool) string {
	var b strings.Builder
	if concrete[d.Name] {
		// Policy endpoints are pinned concrete by name.
		b.WriteString("!" + d.Name + "\n")
	}
	if d.Waypoint {
		b.WriteString("wp\n")
	}
	for _, p := range sortedProcs(d) {
		fmt.Fprintf(&b, "proc %s%d rc=%t", p.Proto, p.ID, p.RedistributeConnected)
		var redist []string
		for _, rp := range p.RedistributesFrom {
			redist = append(redist, fmt.Sprintf("%s%d", rp.Proto, rp.ID))
		}
		sort.Strings(redist)
		b.WriteString(" redist=" + strings.Join(redist, ","))
		var filters []string
		for _, f := range p.RouteFilters {
			filters = append(filters, f.String())
		}
		sort.Strings(filters)
		b.WriteString(" filter=" + strings.Join(filters, ",") + "\n")
	}
	var statics []string
	for _, sr := range d.Statics {
		// Next-hop addresses are link-local and differ across otherwise
		// symmetric members; where the route points is captured by the
		// neighborhood rounds (roundSig resolves the next hop's device).
		statics = append(statics, fmt.Sprintf("st %s d%d", sr.Prefix, sr.Distance))
	}
	sort.Strings(statics)
	for _, s := range statics {
		b.WriteString(s + "\n")
	}
	var intfs []string
	for _, intf := range d.Interfaces() {
		switch {
		case intf.Subnet != nil:
			if !relevant[intf.Subnet] {
				// Irrelevant subnets contribute no slots to the problem
				// and are dropped from the quotient entirely.
				continue
			}
			intfs = append(intfs, "sub "+intf.Subnet.Name+" "+intfAttrSig(d, intf))
		case intf.Link != nil:
			intfs = append(intfs, "lnk "+intfAttrSig(d, intf))
		}
	}
	sort.Strings(intfs)
	for _, s := range intfs {
		b.WriteString(s + "\n")
	}
	return b.String()
}

func refRoundSig(d *topology.Device, classOf map[string]int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(classOf[d.Name]))
	b.WriteByte('\n')
	var edges []string
	for _, intf := range d.Interfaces() {
		peer := intf.Peer()
		if peer == nil {
			continue
		}
		edges = append(edges, fmt.Sprintf("e c%d %s | %s | %s",
			classOf[peer.Device.Name], intfAttrSig(d, intf), intfAttrSig(peer.Device, peer), ""))
	}
	for _, sr := range d.Statics {
		pc := -1
		if peer := staticPeer(d, sr); peer != nil {
			pc = classOf[peer.Name]
		}
		edges = append(edges, fmt.Sprintf("s %s c%d", sr.Prefix, pc))
	}
	sort.Strings(edges)
	for _, e := range edges {
		b.WriteString(e + "\n")
	}
	return b.String()
}

// refBuild is Build as it was before Prepare: the per-call refinement,
// then the same synthesis.
func refBuild(n *topology.Network, spec Spec) (*Quotient, error) {
	relevant := make(map[*topology.Subnet]bool)
	for _, tc := range spec.TCs {
		relevant[tc.Src] = true
		relevant[tc.Dst] = true
	}
	concrete := make(map[string]bool)
	for _, d := range n.Devices() {
		for _, intf := range d.Interfaces() {
			if intf.Subnet != nil && relevant[intf.Subnet] {
				concrete[d.Name] = true
				break
			}
		}
	}
	return synthesize(n, refRefine(n, relevant, concrete), max(spec.Redundancy, 1), relevant)
}

// TestPreparedMatchesPerCallReference: one Prepared per network, shared by
// the compression requests of all its violated destinations the way one
// repair's sub-problems share it, must give each of them the partition and
// the quotient network a fresh per-call refinement gives — same classes in
// the same order, same representatives, same devices, interfaces, links
// and ACL aliases — and render the very signature strings it renders.
func TestPreparedMatchesPerCallReference(t *testing.T) {
	type input struct {
		preset   string
		seed     int64
		breakFT  bool
		maxSpecs int
	}
	inputs := []input{{"dc-256", 7, false, 100}, {"fattree-k8", 11, true, 100}}
	if !testing.Short() {
		inputs = append(inputs, input{"dc-512", 7, false, 3})
	}
	for _, in := range inputs {
		t.Run(in.preset, func(t *testing.T) {
			inst, err := generate.Preset(in.preset, in.seed)
			if err != nil {
				t.Fatal(err)
			}
			if in.breakFT {
				if err := generate.BreakFatTree(inst, 11, 5); err != nil {
					t.Fatal(err)
				}
			}
			n := inst.Network
			p := Prepare(n)
			specs := 0
			seen := map[string]bool{}
			for _, v := range inst.Violations() {
				if seen[v.TC.Dst.Name] || specs == in.maxSpecs {
					continue
				}
				seen[v.TC.Dst.Name] = true
				specs++
				// The request core makes for the destination's sub-problem:
				// every class a policy toward it names.
				spec := Spec{Redundancy: 2 + specs%2}
				for _, pol := range inst.Policies {
					if pol.TC.Dst == v.TC.Dst {
						spec.TCs = append(spec.TCs, pol.TC)
					}
				}
				got, err := p.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refBuild(n, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Classes, want.Classes) || !reflect.DeepEqual(got.ClassOf, want.ClassOf) ||
					!reflect.DeepEqual(got.Rep, want.Rep) || got.Devices != want.Devices || got.DroppedLinks != want.DroppedLinks {
					t.Fatalf("dst %s: partition differs: %d classes prepared, %d per call", v.TC.Dst.Name, len(got.Classes), len(want.Classes))
				}
				if !reflect.DeepEqual(got.Net, want.Net) {
					t.Fatalf("dst %s: quotient networks differ", v.TC.Dst.Name)
				}

				relevant := map[*topology.Subnet]bool{}
				concrete := map[string]bool{}
				for _, tc := range spec.TCs {
					relevant[tc.Src], relevant[tc.Dst] = true, true
				}
				for _, d := range n.Devices() {
					for _, intf := range d.Interfaces() {
						concrete[d.Name] = concrete[d.Name] || relevant[intf.Subnet]
					}
				}
				for i, d := range n.Devices() {
					if g, w := p.devs[i].seedSig(relevant), refSeedSig(d, relevant, concrete); g != w {
						t.Fatalf("dst %s: seed signature of %s:\nprepared %q\nper call %q", v.TC.Dst.Name, d.Name, g, w)
					}
					if g, w := p.devs[i].roundSig(got.ClassOf), refRoundSig(d, got.ClassOf); g != w {
						t.Fatalf("dst %s: round signature of %s:\nprepared %q\nper call %q", v.TC.Dst.Name, d.Name, g, w)
					}
				}
			}
			if specs == 0 {
				t.Fatal("no violated destination")
			}
			t.Logf("%d destinations", specs)
		})
	}
}
