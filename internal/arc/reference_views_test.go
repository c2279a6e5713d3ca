package arc_test

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
)

// The tests in this file hold ETG views to the dense reference
// (arc.DenseETG, reference_test.go): over the same population the state
// reference is pinned on, a view and the dense graph of the same level
// must list the same slots in the same order at the same weights, and —
// because every algorithm walks adjacency in list order and a view's lists
// are the dense lists with dead edges interleaved — return the same
// paths, flows and cuts, not merely the same verdicts.

type refInstance struct {
	name     string
	net      *topology.Network
	policies []policy.Policy
}

// figure2aPolicies returns the §2.2 policies on n (a Figure 2a network),
// plus PC4 requirements for R→T and S→U along A,C — the path a static
// route over A-C can make the shortest.
func figure2aPolicies(n *topology.Network) []policy.Policy {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	return []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}},
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "C"}, TC: topology.TrafficClass{Src: s, Dst: u}},
	}
}

// staticInstances are Figure 2a with static routes on A over its link to
// C (interface cost 1, next hop C's address 10.0.2.3), where a route's
// distance and its interface's cost part ways: a distance of its own with
// the A-C adjacency down (the route weighs its distance) and up (the
// adjacency's cost wins), and two destinations' routes over the one
// interface at different distances (T's ties A,B,C: PC4 is ambiguous).
func staticInstances() []refInstance {
	viaC := netip.MustParseAddr("10.0.2.3")
	down := topology.Figure2a()
	down.Device("A").AddStatic(down.Subnet("T").Prefix, viaC, 3)
	up := topology.Figure2a()
	delete(up.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	up.Device("A").AddStatic(up.Subnet("T").Prefix, viaC, 5)
	two := topology.Figure2a()
	two.Device("A").AddStatic(two.Subnet("T").Prefix, viaC, 2)
	two.Device("A").AddStatic(two.Subnet("U").Prefix, viaC, 7)
	return []refInstance{
		{"figure2a-static-adjacency-down", down, figure2aPolicies(down)},
		{"figure2a-static-adjacency-up", up, figure2aPolicies(up)},
		{"figure2a-statics-two-destinations", two, figure2aPolicies(two)},
	}
}

// referenceInstances is the population the views are pinned on.
func referenceInstances(t *testing.T) []refInstance { return instances(t, 24) }

// instances returns Figure 2a, its static-route variants
// (staticInstances), the first networks networks of the corpus the
// benchmark uses, and broken fat-trees at k=4 and (without -short) k=8.
func instances(t *testing.T, networks int) []refInstance {
	t.Helper()
	n := topology.Figure2a()
	insts := []refInstance{{"figure2a", n, figure2aPolicies(n)[:4]}}
	insts = append(insts, staticInstances()...)
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: networks, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for i, inst := range corpus {
		insts = append(insts, refInstance{fmt.Sprintf("corpus-%02d", i), inst.Network, inst.Policies})
	}
	ft4, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft4, 5, 8); err != nil {
		t.Fatal(err)
	}
	insts = append(insts, refInstance{"fattree-k4-broken", ft4.Network, ft4.Policies})
	if !testing.Short() {
		ft8, err := generate.Preset("fattree-k8", 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(ft8, 11, 5); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, refInstance{"fattree-k8-broken", ft8.Network, ft8.Policies})
	}
	return insts
}

var none = graph.V(graph.None)

func denseAll(t *arc.Table) *arc.ETG {
	e := arc.DenseETG(t, nil, func(s *arc.Slot) bool {
		return s.Kind != arc.SlotSource && s.Kind != arc.SlotDest && s.PresentAll()
	}, func(s *arc.Slot) int64 { return s.Weight(nil) })
	e.Src, e.Dst = none, none
	return e
}

func denseDst(t *arc.Table, dst *topology.Subnet) *arc.ETG {
	e := arc.DenseETG(t, dst, func(s *arc.Slot) bool {
		return s.ApplicableDst(dst) && s.PresentDst(dst)
	}, func(s *arc.Slot) int64 { return s.Weight(dst) })
	e.Src = none
	return e
}

func denseTC(t *arc.Table, tc topology.TrafficClass) *arc.ETG {
	return arc.DenseETG(t, tc.Dst, func(s *arc.Slot) bool {
		return s.ApplicableTC(tc) && s.PresentTC(tc)
	}, func(s *arc.Slot) int64 { return s.Weight(tc.Dst) })
}

func denseRouting(t *arc.Table, tc topology.TrafficClass) *arc.ETG {
	return arc.DenseETG(t, tc.Dst, func(s *arc.Slot) bool {
		return s.ApplicableTC(tc) && s.PresentRouting(tc)
	}, func(s *arc.Slot) int64 { return s.Weight(tc.Dst) })
}

// sameGraph checks that the view and the dense graph hold the same slots
// in the same order at the same weights, and returns the view's edge id
// of each dense edge.
func sameGraph(t *testing.T, what string, view, dense *arc.ETG) []graph.E {
	t.Helper()
	var ids []graph.E
	view.EachSlot(func(s *arc.Slot) { ids = append(ids, graph.E(s.ID)) })
	if len(ids) != dense.G.NumEdges() || view.G.NumEdges() != len(ids) {
		t.Fatalf("%s: view has %d live slots (NumEdges %d), dense %d", what, len(ids), view.G.NumEdges(), dense.G.NumEdges())
	}
	for i, id := range ids {
		vs, ds := view.Slot(id), dense.Slot(graph.E(i))
		if vs.Key() != ds.Key() || view.G.Edge(id) != dense.G.Edge(graph.E(i)) {
			t.Fatalf("%s: live slot %d is %s %+v in the view, %s %+v dense", what, i, vs.Key(), view.G.Edge(id), ds.Key(), dense.G.Edge(graph.E(i)))
		}
	}
	return ids
}

const bigCap = int64(1) << 40

// capacities are the three capacity functions the callers of MaxFlow and
// MinCut use: unit everywhere, unit on links (PC3, greedy PC2/PC3), unit
// on whatever an ACL can remove (greedy PC1).
func capacities(e *arc.ETG) map[string]func(graph.E) int64 {
	return map[string]func(graph.E) int64{
		"unit": nil,
		"links": func(id graph.E) int64 {
			if e.Slot(id).Kind == arc.SlotInterDevice {
				return 1
			}
			return bigCap
		},
		"removable": func(id graph.E) int64 {
			switch e.Slot(id).Kind {
			case arc.SlotInterDevice, arc.SlotSource, arc.SlotDest:
				return 1
			}
			return bigCap
		},
	}
}

// sameAnswers runs every graph algorithm a verifier, an explanation or the
// greedy baseline calls, from src to dst, on both graphs, and compares
// what they return (edge ids through ids).
func sameAnswers(t *testing.T, what string, view, dense *arc.ETG, ids []graph.E, src, dst graph.V) {
	t.Helper()
	eq := func(fn string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s(%d→%d) = %v on the view, %v dense", what, fn, src, dst, got, want)
		}
	}
	eq("PathAvoiding", view.G.PathAvoiding(src, dst, nil), dense.G.PathAvoiding(src, dst, nil))
	eq("PathAvoiding/waypoints", view.G.PathAvoiding(src, dst, view.WaypointEdge), dense.G.PathAvoiding(src, dst, dense.WaypointEdge))
	vp, vu := view.G.ShortestPathUnique(src, dst)
	dp, du := dense.G.ShortestPathUnique(src, dst)
	eq("ShortestPathUnique", vp, dp)
	eq("ShortestPathUnique/unique", vu, du)

	toView := func(es []graph.E) []graph.E {
		var out []graph.E
		for _, e := range es {
			out = append(out, ids[e])
		}
		return out
	}
	viewCaps, denseCaps := capacities(view), capacities(dense)
	for name, vc := range viewCaps {
		dc := denseCaps[name]
		vt, vf := view.G.MaxFlow(src, dst, vc)
		dt, df := dense.G.MaxFlow(src, dst, dc)
		eq("MaxFlow/"+name, vt, dt)
		var onLive, total int64
		for i, f := range df {
			if vf[ids[i]] != f {
				t.Fatalf("%s: MaxFlow/%s puts %d on %s in the view, %d dense", what, name, vf[ids[i]], dense.Slot(graph.E(i)).Key(), f)
			}
			onLive += f
		}
		for _, f := range vf {
			total += f
		}
		if total != onLive {
			t.Fatalf("%s: MaxFlow/%s puts flow on an absent slot", what, name)
		}
		eq("MinCut/"+name, view.G.MinCut(src, dst, vc), toView(dense.G.MinCut(src, dst, dc)))
		eq("DisjointPaths/"+name, view.G.DisjointPaths(src, dst, vc), dense.G.DisjointPaths(src, dst, dc))
	}
}

// sameVerdicts compares the traffic-class verifiers, including the
// witnesses kflow returns.
func sameVerdicts(t *testing.T, what string, view, dense *arc.ETG, n *topology.Network) {
	t.Helper()
	if arc.VerifyAlwaysBlocked(view) != arc.VerifyAlwaysBlocked(dense) ||
		arc.VerifyAlwaysWaypoint(view) != arc.VerifyAlwaysWaypoint(dense) ||
		arc.MaxDisjointFlow(view) != arc.MaxDisjointFlow(dense) {
		t.Fatalf("%s: PC1/PC2/flow verdicts differ", what)
	}
	for k := 1; k <= 3; k++ {
		if v, d := arc.LinkDisjointFlow(view, k), arc.LinkDisjointFlow(dense, k); v != d {
			t.Fatalf("%s: LinkDisjointFlow(%d) = %d on the view, %d dense", what, k, v, d)
		}
		vl, vok := arc.MinLinkCut(view, k)
		dl, dok := arc.MinLinkCut(dense, k)
		if vok != dok || !reflect.DeepEqual(vl, dl) {
			t.Fatalf("%s: MinLinkCut(%d) = %v,%v on the view, %v,%v dense", what, k, vl, vok, dl, dok)
		}
		if !vok || len(vl) == 0 {
			continue
		}
		// Failing the witness disconnects both, through a private mask.
		failed := bitset.New(len(n.Links))
		for i, l := range n.Links {
			for _, w := range vl {
				failed.Put(i, failed.Has(i) || l == w)
			}
		}
		vw, dw := view.WithoutLinks(failed), dense.WithoutLinks(failed)
		if vw.G.PathExists(vw.Src, vw.Dst) || dw.G.PathExists(dw.Src, dw.Dst) {
			t.Fatalf("%s: failing MinLinkCut(%d)'s witness leaves a path", what, k)
		}
		if !view.G.PathExists(view.Src, view.Dst) {
			t.Fatalf("%s: WithoutLinks wrote through to the graph it copied", what)
		}
	}
}

// strided returns at most max indexes spread evenly over 0..n-1.
func strided(n, max int) []int {
	step := (n + max - 1) / max
	if step < 1 {
		step = 1
	}
	var out []int
	for i := 0; i < n; i += step {
		out = append(out, i)
	}
	return out
}

func TestViewsMatchDenseReference(t *testing.T) {
	for _, inst := range referenceInstances(t) {
		t.Run(inst.name, func(t *testing.T) {
			h := harc.Build(inst.net)
			tab, st := h.Table, harc.StateOf(h)
			np := len(tab.Procs)

			// The HARC lays no graph over its aETG and dETG rows; view them
			// here. Neither has a SRC (and the aETG no DST): walk them from a
			// few processes' outgoing vertices instead (vertex 2+2p is
			// process p's incoming vertex, 3+2p its outgoing one).
			va, da := arc.NewETG(tab, st.All, tab.Weights(func(s *arc.Slot) int64 { return s.Weight(nil) })), denseAll(tab)
			ids := sameGraph(t, "aETG", va, da)
			for _, p := range strided(np, 4) {
				sameAnswers(t, "aETG", va, da, ids, graph.V(3+2*p), graph.V(2+2*(np-1-p)))
			}
			for r, dst := range h.Dsts {
				what := "dETG(" + dst.Name + ")"
				// The state weighs every slot as the rules do: an interface's
				// cost, or a static route's distance while its adjacency is down.
				for _, s := range tab.Slots {
					if got, want := st.SlotCost(s, dst), s.Weight(dst); got != want {
						t.Fatalf("%s: %s weighs %d in the state, %d by the rules", what, s.Key(), got, want)
					}
				}
				vd, dd := arc.NewETG(tab, st.Dst[r], tab.Weights(func(s *arc.Slot) int64 { return st.SlotCost(s, dst) })), denseDst(tab, dst)
				ids := sameGraph(t, what, vd, dd)
				for _, p := range strided(np, 3) {
					sameAnswers(t, what, vd, dd, ids, graph.V(3+2*p), arc.VDst)
				}
			}

			pc4 := map[string][][]string{}
			for _, p := range inst.policies {
				if p.Kind == policy.PrimaryPath {
					pc4[p.TC.Key()] = append(pc4[p.TC.Key()], p.Path)
				}
			}
			for _, r := range strided(len(h.TCs), 60) {
				tc := h.TCs[r]
				what := "tcETG(" + tc.String() + ")"
				view, dense := h.TC[r], denseTC(tab, tc)
				ids := sameGraph(t, what, view, dense)
				sameAnswers(t, what, view, dense, ids, view.Src, view.Dst)
				sameVerdicts(t, what, view, dense, inst.net)

				// A StateOf clone of the HARC's rows lays the same graph.
				fromState := harc.BuildTCETGFromState(h, st, tc)
				ids = sameGraph(t, what+" from state", fromState, dense)
				sameAnswers(t, what+" from state", fromState, dense, ids, fromState.Src, fromState.Dst)

				what = "routing(" + tc.String() + ")"
				routing, denseR := harc.BuildRoutingETGFromState(h, nil, tc), denseRouting(tab, tc)
				ids = sameGraph(t, what, routing, denseR)
				sameAnswers(t, what, routing, denseR, ids, routing.Src, routing.Dst)
				routingFromState := harc.BuildRoutingETGFromState(h, st, tc)
				ids = sameGraph(t, what+" from state", routingFromState, denseR)
				sameAnswers(t, what+" from state", routingFromState, denseR, ids, routingFromState.Src, routingFromState.Dst)

				// PC4 against the path routing actually takes (holds unless
				// an ACL drops it or it ties), its reverse (fails), and the
				// instance's own requirements for the class.
				paths := pc4[tc.Key()]
				if p, _ := routing.G.ShortestPathUnique(routing.Src, routing.Dst); p != nil {
					taken := routing.DevicePath(p)
					rev := make([]string, len(taken))
					for i, d := range taken {
						rev[len(taken)-1-i] = d
					}
					paths = append(paths, taken, rev)
				}
				for _, path := range paths {
					if v, d := arc.VerifyPrimaryPath(view, routing, path), arc.VerifyPrimaryPath(dense, denseR, path); v != d {
						t.Fatalf("%s: VerifyPrimaryPath(%v) = %v on views, %v dense", what, path, v, d)
					}
				}
			}
		})
	}
}

// TestExplainMatchesDenseReference: the explanations are the user-visible
// form of the paths and cuts above. The instance's own policies, plus one
// of every kind on a sample of classes so that each kind of witness is
// printed, must explain word for word the same over a HARC whose ETGs are
// dense.
func TestExplainMatchesDenseReference(t *testing.T) {
	for _, inst := range referenceInstances(t) {
		t.Run(inst.name, func(t *testing.T) {
			h := harc.Build(inst.net)
			policies := append([]policy.Policy(nil), inst.policies...)
			sample := strided(len(h.TCs), 40)
			for i, r := range sample {
				tc := h.TCs[r]
				policies = append(policies,
					policy.Policy{Kind: policy.AlwaysBlocked, TC: tc},
					policy.Policy{Kind: policy.AlwaysWaypoint, TC: tc},
					policy.Policy{Kind: policy.KReachable, TC: tc, K: 3},
					policy.Policy{Kind: policy.PrimaryPath, TC: tc, Path: []string{inst.net.Devices()[0].Name}},
					policy.Policy{Kind: policy.Isolated, TC: tc, TC2: h.TCs[sample[(i+1)%len(sample)]]})
			}

			dense := *h
			// Classes no policy names stay nil; nothing asks for them.
			dense.TC = make([]*arc.ETG, len(h.TCs))
			for _, p := range policies {
				for _, tc := range []topology.TrafficClass{p.TC, p.TC2} {
					if tc.Src == nil {
						continue // TC2 of a policy that is not an isolation
					}
					if r := h.TCRow(tc); dense.TC[r] == nil {
						dense.TC[r] = denseTC(h.Table, tc)
					}
				}
			}

			got, want := policy.ExplainAll(h, policies), policy.ExplainAll(&dense, policies)
			if len(want) < len(sample) {
				t.Fatalf("only %d explanations for %d sampled classes", len(want), len(sample))
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got {
					if i >= len(want) || got[i] != want[i] {
						t.Fatalf("explanation %d differs:\nviews: %s\ndense: %v", i, got[i], want[i:])
					}
				}
				t.Fatalf("views explain %d violations, dense %d", len(got), len(want))
			}
			if bad, ruleBad := policy.Violations(h, policies), ruleViolations(h.Table, inst.net, policies); !reflect.DeepEqual(bad, ruleBad) {
				t.Fatalf("the state's rows find %d violations, the rules %d", len(bad), len(ruleBad))
			}
			// A PC4 witness names the path the rule-built routing graph takes
			// (the dense HARC above shares the state's routing graphs).
			for _, p := range policies {
				if p.Kind != policy.PrimaryPath {
					continue
				}
				w, violated := policy.Explain(h, p)
				routing := denseRouting(h.Table, p.TC)
				if holds := arc.VerifyPrimaryPath(denseTC(h.Table, p.TC), routing, p.Path); violated == holds {
					t.Fatalf("%s: explained as violated=%v, the rules say holds=%v", p, violated, holds)
				}
				path, _ := routing.G.ShortestPathUnique(routing.Src, routing.Dst)
				taken := strings.Join(routing.DevicePath(path), " -> ")
				if violated && path != nil && taken != strings.Join(p.Path, " -> ") && !strings.Contains(w, taken) {
					t.Fatalf("%s: witness %q does not name the routed path %s", p, w, taken)
				}
			}
		})
	}
}

// ruleViolations is policy.Violations over the rule-built graphs.
func ruleViolations(tab *arc.Table, n *topology.Network, policies []policy.Policy) []policy.Policy {
	var out []policy.Policy
	for _, p := range policies {
		etg := arc.BuildTCETG(tab, p.TC)
		var holds bool
		switch p.Kind {
		case policy.AlwaysBlocked:
			holds = arc.VerifyAlwaysBlocked(etg)
		case policy.AlwaysWaypoint:
			holds = arc.VerifyAlwaysWaypoint(etg)
		case policy.KReachable:
			holds = arc.VerifyKReachable(etg, n, p.K)
		case policy.PrimaryPath:
			holds = arc.VerifyPrimaryPath(etg, arc.BuildRoutingETG(tab, p.TC), p.Path)
		case policy.Isolated:
			holds = !etg.G.Live().Intersects(arc.BuildTCETG(tab, p.TC2).G.Live())
		}
		if !holds {
			out = append(out, p)
		}
	}
	return out
}
