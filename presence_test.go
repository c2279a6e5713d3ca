package cpr

import (
	"strings"
	"testing"

	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/harc"
)

// withStanzas returns a configuration text with block inserted before its
// router stanza and tail appended to that stanza, the text's last.
func withStanzas(text, block, tail string) string {
	return strings.Replace(text, "router ospf 10\n", block+"router ospf 10\n", 1) + tail
}

// slotIn returns the id of the first slot whose key has every given part,
// failing the test if there is none.
func slotIn(t *testing.T, h *harc.HARC, kind arc.SlotKind, parts ...string) int {
	t.Helper()
	for id, s := range h.Slots {
		if s.Kind != kind {
			continue
		}
		all := true
		for _, p := range parts {
			all = all && strings.Contains(s.Key(), p)
		}
		if all {
			return id
		}
	}
	t.Fatalf("no %v slot with %q", kind, parts)
	return -1
}

// TestUnsolvedRowsFollowTheRule: a repair derives the presence rows no
// sub-problem solved from the merged constructs, so its state is closed
// under the presence rule (ValidateState) in the two cases where copying
// a repaired parent's bits onto them is not:
//   - a per-destination repair filters T at B, the cheapest way to block
//     R and S (at A, behind B) while W (at D, beside C) keeps its route,
//     and U, whose class toward T no policy names, enters at B: U's
//     attachment must leave that class's row with B's route, and the
//     patch needs no ACL for it;
//   - an all-tcs repair adds the A–C adjacency, and C filters U, which no
//     policy names: U's row must not gain the A→C edge, since C has no
//     route to U to forward on.
func TestUnsolvedRowsFollowTheRule(t *testing.T) {
	t.Run("per-dst gateway filter", func(t *testing.T) {
		texts := config.Figure2aConfigs()
		texts["C"] = withStanzas(texts["C"], "interface Ethernet0/4\n description Link-to-D\n ip address 10.0.4.3 255.255.255.0\n!\n", "")
		texts["D"] = "hostname D\n!\ninterface Ethernet0/1\n description Link-to-C\n ip address 10.0.4.4 255.255.255.0\n!\n" +
			"interface Ethernet0/2\n description Subnet-W\n ip address 10.70.0.1 255.255.0.0\n!\n" +
			"router ospf 10\n redistribute connected\n passive-interface Ethernet0/2\n network 10.0.0.0 0.255.255.255 area 0\n"
		sys, err := Load(texts)
		if err != nil {
			t.Fatal(err)
		}
		rep := repairRule(t, sys, "always-blocked S T\nalways-blocked R T\nreachable W T 1\n", DefaultOptions())
		h, st := sys.HARC, rep.Result.State
		tc := TrafficClass{Src: sys.Network.Subnet("U"), Dst: sys.Network.Subnet("T")}
		self, src := slotIn(t, h, arc.SlotIntraSelf, "self:B:ospf10"), slotIn(t, h, arc.SlotSource, "src:U>B:ospf10")
		if d := h.DstRow(tc.Dst); st.Dst[d].Has(self) || !rep.Result.Orig.Dst[d].Has(self) {
			t.Fatalf("the repair no longer filters T at B:\n%s", rep.Plan)
		}
		if r := h.TCRow(tc); st.TC[r].Has(src) || !rep.Result.Orig.TC[r].Has(src) {
			t.Errorf("%s keeps its attachment at B, whose process no longer routes to T", tc)
		}
		if n := rep.Plan.NumLines(); n != 1 {
			t.Errorf("the plan has %d lines, want only B's filter: the filter, not an ACL, removes %s's attachment\n%s", n, tc, rep.Plan)
		}
		if err := h.ValidateState(st); err != nil {
			t.Error(err)
		}
	})
	t.Run("all-tcs adjacency toward a filter", func(t *testing.T) {
		texts := config.Figure2aConfigs()
		texts["C"] = withStanzas(texts["C"], "interface Ethernet0/4\n description Subnet-T2\n ip address 10.60.0.1 255.255.0.0\n!\n",
			" passive-interface Ethernet0/4\n distribute-list prefix 10.40.0.0/16 in\n")
		sys, err := Load(texts)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Granularity = AllTCs
		rep := repairRule(t, sys, "reachable S T 2\nreachable S T2 2\n", opts)
		h, st := sys.HARC, rep.Result.State
		ac := slotIn(t, h, arc.SlotInterDevice, "inter:A:ospf10>C:")
		if !st.All.Has(ac) || rep.Result.Orig.All.Has(ac) {
			t.Fatalf("the repair no longer adds the A–C adjacency:\n%s", rep.Plan)
		}
		if st.Dst[h.DstRow(sys.Network.Subnet("U"))].Has(ac) {
			t.Error("dETG(U) gains A→C, but C filters U")
		}
		if err := h.ValidateState(st); err != nil {
			t.Error(err)
		}
	})
}

// repairRule repairs spec on sys and requires it solved.
func repairRule(t *testing.T, sys *System, spec string, opts Options) *RepairOutput {
	t.Helper()
	ps, err := sys.ParsePolicies(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Verify(ps)) == 0 {
		t.Fatal("no policy is violated: the repair would change nothing")
	}
	rep, err := sys.Repair(ps, opts)
	if err != nil || !rep.Solved() {
		t.Fatalf("repair: %v", err)
	}
	return rep
}
