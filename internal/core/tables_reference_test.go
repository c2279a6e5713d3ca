package core

import (
	"slices"
	"testing"

	"repro/internal/arc"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/harc"
	"repro/internal/topology"
)

// referenceTC is one traffic class's tables as they were built before
// positions became int32 and their groupings CSR: ints throughout, and a
// Go slice per group.
type referenceTC struct {
	slots, fromV, toV     []int
	nv                    int
	byTail, byHead, links [][]int
}

// buildTCReference is the reference for buildTC: the same numbering, with
// each grouping made by groupPositions.
func buildTCReference(h *harc.HARC, tc topology.TrafficClass) referenceTC {
	t := referenceTC{nv: 2}
	local := make([]int, len(h.Vertices))
	local[arc.VDst] = 1
	vertex := func(v graph.V) int {
		if v > arc.VDst && local[v] == 0 {
			local[v] = t.nv
			t.nv++
		}
		return local[v]
	}
	linkIdx := make([]int, len(h.Links))
	var linkOf []int
	nLinks := 0
	for i, s := range h.Slots {
		if !s.ApplicableTC(tc) {
			continue
		}
		t.slots = append(t.slots, i)
		t.fromV = append(t.fromV, vertex(s.From))
		t.toV = append(t.toV, vertex(s.To))
		li := -1
		if s.Kind == arc.SlotInterDevice {
			if li = linkIdx[s.LinkID] - 1; li < 0 {
				li = nLinks
				nLinks++
				linkIdx[s.LinkID] = li + 1
			}
		}
		linkOf = append(linkOf, li)
	}
	t.byTail = groupPositions(t.fromV, t.nv)
	t.byHead = groupPositions(t.toV, t.nv)
	t.links = groupPositions(linkOf, nLinks)
	return t
}

// groupPositions returns, for each of n groups, the positions k with
// group[k] == that group, ascending (a negative entry belongs to none).
func groupPositions(group []int, n int) [][]int {
	out := make([][]int, n)
	for k, g := range group {
		if g >= 0 {
			out[g] = append(out[g], k)
		}
	}
	return out
}

// ints widens int32 positions for comparison with the reference.
func ints(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}

// checkTCTables holds buildTC to the reference for every traffic class of h.
func checkTCTables(t *testing.T, name string, h *harc.HARC) {
	t.Helper()
	tb := newTables(h)
	for _, tc := range h.TCs {
		got, want := tb.buildTC(tc), buildTCReference(h, tc)
		if got.nv != want.nv || !slices.Equal(ints(got.slots), want.slots) ||
			!slices.Equal(ints(got.fromV), want.fromV) || !slices.Equal(ints(got.toV), want.toV) {
			t.Fatalf("%s, %s: slots or vertex numbering differ from the reference", name, tc)
		}
		for _, g := range []struct {
			what string
			got  groups
			want [][]int
		}{{"byTail", got.byTail, want.byTail}, {"byHead", got.byHead, want.byHead}, {"links", got.links, want.links}} {
			if g.got.n() != len(g.want) {
				t.Fatalf("%s, %s: %d %s groups, reference %d", name, tc, g.got.n(), g.what, len(g.want))
			}
			for i, w := range g.want {
				if got := ints(g.got.at(i)); !slices.Equal(got, w) {
					t.Fatalf("%s, %s: %s group %d is %v, reference %v", name, tc, g.what, i, got, w)
				}
			}
		}
	}
}

// TestTCTablesMatchReference holds the per-class tables — int32
// positions grouped by tail, head and link in CSR form — to the [][]int
// grouping they replaced, for every class of every quotient a dc-256
// repair builds and of every corpus network.
func TestTCTablesMatchReference(t *testing.T) {
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := dc.Harc()
	opts := DefaultOptions()
	problems, err := buildProblems(h, dc.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb := newTables(h)
	for _, pr := range problems {
		_, qh, _, _, stage := buildQuotient(tb, pr, opts)
		if stage != "" {
			t.Fatalf("dc-256 %s: no quotient (%s)", pr.label, stage)
		}
		checkTCTables(t, "dc-256 quotient of "+pr.label, qh)
	}

	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range corpus {
		checkTCTables(t, inst.Name, inst.Harc())
	}
}
