package policy

import (
	"strings"
	"testing"

	"repro/internal/harc"
	"repro/internal/topology"
)

func ep(n *topology.Network) (ep1, ep2, ep3, ep4 Policy) {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	ep1 = Policy{Kind: AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}}
	ep2 = Policy{Kind: AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}}
	ep3 = Policy{Kind: KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}}
	ep4 = Policy{Kind: PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}}
	return
}

func TestCheckFigure2aPolicies(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ep1, ep2, ep3, ep4 := ep(n)
	if !Check(h, ep1) {
		t.Error("EP1 should hold")
	}
	if !Check(h, ep2) {
		t.Error("EP2 should hold")
	}
	if Check(h, ep3) {
		t.Error("EP3 should be violated")
	}
	if !Check(h, ep4) {
		t.Error("EP4 should hold")
	}
	v := Violations(h, []Policy{ep1, ep2, ep3, ep4})
	if len(v) != 1 || v[0].Kind != KReachable {
		t.Errorf("violations = %v, want just EP3", v)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	n := topology.Figure2a()
	ep1, ep2, ep3, ep4 := ep(n)
	text := Format([]Policy{ep1, ep2, ep3, ep4})
	parsed, err := Parse(n, text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(parsed) != 4 {
		t.Fatalf("parsed %d policies, want 4", len(parsed))
	}
	if Format(parsed) != text {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", Format(parsed), text)
	}
}

func TestParseIsolated(t *testing.T) {
	n := topology.Figure2a()
	parsed, err := Parse(n, "isolated S T R U\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || parsed[0].Kind != Isolated {
		t.Fatalf("parsed = %v", parsed)
	}
	p := parsed[0]
	if p.TC.Src.Name != "S" || p.TC.Dst.Name != "T" || p.TC2.Src.Name != "R" || p.TC2.Dst.Name != "U" {
		t.Errorf("classes wrong: %+v", p)
	}
	if Format(parsed) != "isolated S T R U\n" {
		t.Errorf("format round trip: %q", Format(parsed))
	}
	if _, err := Parse(n, "isolated S T R\n"); err == nil {
		t.Error("short isolated should fail")
	}
	if _, err := Parse(n, "isolated S T R NOPE\n"); err == nil {
		t.Error("unknown subnet should fail")
	}
}

func TestParseCommentsAndBlanks(t *testing.T) {
	n := topology.Figure2a()
	text := "# comment\n\nalways-blocked S U\n  # indented comment\n"
	parsed, err := Parse(n, text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(parsed) != 1 || parsed[0].Kind != AlwaysBlocked {
		t.Fatalf("parsed = %v", parsed)
	}
}

func TestParseErrors(t *testing.T) {
	n := topology.Figure2a()
	cases := []string{
		"always-blocked S NOPE",
		"always-blocked NOPE U",
		"reachable S T",
		"reachable S T zero",
		"reachable S T 0",
		"primary-path R T",
		"primary-path R T A,Z,C",
		"frobnicate S T",
		"short S",
		"always-blocked S S",
		"isolated S T R R",
	}
	for _, text := range cases {
		if _, err := Parse(n, text); err == nil {
			t.Errorf("expected error for %q", text)
		}
	}
}

func TestInferFigure2a(t *testing.T) {
	n := topology.Figure2a()
	inferred := Infer(harc.Build(n))
	if len(inferred) != 12 {
		t.Fatalf("inferred %d policies, want 12 (one per traffic class)", len(inferred))
	}
	byKey := map[string]Policy{}
	for _, p := range inferred {
		byKey[p.TC.Key()] = p
	}
	// S->U and R->U are blocked by the ACL (only path A->B blocks dst U).
	su := byKey[topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("U")}.Key()]
	if su.Kind != AlwaysBlocked {
		t.Errorf("S->U inferred %v, want PC1", su.Kind)
	}
	// S->T is reachable but not 1-failure tolerant: PC3 with K=1.
	st := byKey[topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}.Key()]
	if st.Kind != KReachable || st.K != 1 {
		t.Errorf("S->T inferred %v K=%d, want PC3 K=1", st.Kind, st.K)
	}
	// No traffic class has multiple policies.
	if len(byKey) != len(inferred) {
		t.Error("a traffic class has multiple inferred policies")
	}
}

func TestInferredPoliciesHold(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	for _, p := range Infer(h) {
		if !Check(h, p) {
			t.Errorf("inferred policy %s does not hold", p)
		}
	}
}

func TestCheckStateMatchesCheck(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	st := harc.StateOf(h)
	ep1, ep2, ep3, ep4 := ep(n)
	for _, p := range []Policy{ep1, ep2, ep3, ep4} {
		if Check(h, p) != NewStateChecker(h, st).Check(p) {
			t.Errorf("Check and a StateOf checker disagree on %s", p)
		}
	}
}

func TestGroupByDst(t *testing.T) {
	n := topology.Figure2a()
	ep1, ep2, ep3, ep4 := ep(n)
	groups := GroupByDst([]Policy{ep1, ep2, ep3, ep4})
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2 (U and T)", len(groups))
	}
	if len(groups["T"]) != 3 || len(groups["U"]) != 1 {
		t.Errorf("group sizes wrong: T=%d U=%d", len(groups["T"]), len(groups["U"]))
	}
	names := SortedGroupNames(groups)
	if len(names) != 2 || names[0] != "T" || names[1] != "U" {
		t.Errorf("sorted names = %v", names)
	}
}

func TestCountByKind(t *testing.T) {
	n := topology.Figure2a()
	ep1, ep2, ep3, ep4 := ep(n)
	counts := CountByKind([]Policy{ep1, ep2, ep3, ep4, ep1})
	if counts[AlwaysBlocked] != 2 || counts[AlwaysWaypoint] != 1 || counts[KReachable] != 1 || counts[PrimaryPath] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{AlwaysBlocked: "PC1", AlwaysWaypoint: "PC2", KReachable: "PC3", PrimaryPath: "PC4"} {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	n := topology.Figure2a()
	_, _, _, ep4 := ep(n)
	if !strings.Contains(ep4.String(), "A,B,C") {
		t.Errorf("PC4 string missing path: %s", ep4)
	}
}
