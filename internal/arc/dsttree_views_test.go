package arc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/generate"
	"repro/internal/harc"
)

// TestDstTreeMatchesFlow holds the per-destination post-dominator tree to
// the flow it stands in for: for every destination row of a HARC and every
// clean class toward it, the tree's answer is min(2, LinkDisjointFlow) at
// k = 2, and its min with 1 the flow at k = 1 — on the population the
// views are pinned on (Figure 2a with and without statics, the corpus, the
// broken fat-trees), dc-256, the odd shapes, and each of those with random
// links failed. harc.DstFlows must answer exactly the clean classes, with
// the tree's answer.
func TestDstTreeMatchesFlow(t *testing.T) {
	insts := referenceInstances(t)
	if !testing.Short() {
		dc, err := generate.Preset("dc-256", 7)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, refInstance{name: "dc-256", net: dc.Network})
	}
	for seed := int64(0); seed < 60; seed++ {
		insts = append(insts, refInstance{name: fmt.Sprintf("odd-%d", seed), net: arc.OddNetwork(rand.New(rand.NewSource(seed)))})
	}
	var clean, total int
	var answers [3]int
	for _, inst := range insts {
		r := rand.New(rand.NewSource(int64(len(inst.name))))
		h := harc.Build(inst.net)
		st := harc.StateOf(h)
		for d, dst := range h.Dsts {
			var rows []bitset.Set
			var sources [][]int32
			var classes []int
			for tr := range h.TCs {
				if h.DstOf(tr) == d {
					rows, sources, classes = append(rows, st.TC[tr]), append(sources, h.SrcSlots(tr)), append(classes, tr)
				}
			}
			what := inst.name + " to " + dst.Name
			c, a := arc.CheckDstTree(t, what, h.Table, st.Dst[d], rows, sources)
			clean, total = clean+c, total+len(rows)
			for i := range a {
				answers[i] += a[i]
			}

			flows := harc.NewDstFlows(h, nil, d)
			answered := 0
			for i, tr := range classes {
				f, ok := flows.Flow(tr)
				if !ok {
					continue
				}
				answered++
				if want := arc.LinkDisjointFlow(h.TC[tr], 2); f != want {
					t.Fatalf("%s: DstFlows says %d for class %s (row %d), flow %d", what, f, h.TCs[tr], i, want)
				}
			}
			flows.Release()
			if answered != c {
				t.Fatalf("%s: DstFlows answered %d classes, %d are clean", what, answered, c)
			}

			// The same with random links failed: the failed links' slots
			// leave the destination's row and every class's alike.
			failed := arc.RandomFailures(inst.net, r)
			cut := func(row bitset.Set) bitset.Set {
				row = row.Clone()
				for id, s := range h.Slots {
					if s.Kind == arc.SlotInterDevice && failed.Has(s.LinkID) {
						row.Put(id, false)
					}
				}
				return row
			}
			for i := range rows {
				rows[i] = cut(rows[i])
			}
			c, a = arc.CheckDstTree(t, what+" with failures", h.Table, cut(st.Dst[d]), rows, sources)
			clean, total = clean+c, total+len(rows)
			for i := range a {
				answers[i] += a[i]
			}
		}
	}
	t.Logf("%d of %d classes clean; tree answers 0/1/2: %v", clean, total, answers)
	if answers[0] == 0 || answers[1] == 0 || answers[2] == 0 || clean < total/2 {
		t.Fatalf("the population does not exercise the tree: %d of %d classes clean, answers %v", clean, total, answers)
	}
}

// TestDstTreeAllocs pins the tree's steady state: on a warmed pool a
// dc-256 destination's tree, and every answer it gives, allocate nothing.
func TestDstTreeAllocs(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("builds dc-256; goes through a sync.Pool")
	}
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	n := dc.Network
	h := harc.BuildLite(n, n.TrafficClasses())
	d := 0
	var classes []int
	for tr := range h.TCs {
		if h.DstOf(tr) == d {
			classes = append(classes, tr)
		}
	}
	sweep := func() {
		flows := harc.NewDstFlows(h, nil, d)
		for _, tr := range classes {
			flows.Flow(tr)
		}
		flows.Release()
	}
	sweep()
	if allocs := testing.AllocsPerRun(20, sweep); allocs != 0 {
		t.Errorf("a steady-state tree over %d classes allocates %.0f times, want 0", len(classes), allocs)
	}
}
