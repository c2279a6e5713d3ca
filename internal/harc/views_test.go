package harc_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
)

// TestViewNeverWritesSharedStorage: the HARC's tcETGs, every what-if copy
// of them and every StateOf clone read the same rows, so the sharing is
// sound only while nobody writes through it. Everything that looks like a
// write — failing links, removing edges, greedy repairs, Set* on a clone —
// runs here against one HARC from several goroutines at once, beside
// parallel verification; under -race a write to a shared row is a
// reported race, and afterwards the HARC must read exactly as built.
func TestViewNeverWritesSharedStorage(t *testing.T) {
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 5, 8); err != nil {
		t.Fatal(err)
	}
	h := harc.Build(inst.Network)
	var repairable []policy.Policy // greedy refuses PC4
	for _, p := range inst.Policies {
		if p.Kind != policy.PrimaryPath {
			repairable = append(repairable, p)
		}
	}

	// masks deep-copies what every ETG of the HARC currently shows.
	masks := func() []bitset.Set {
		var out []bitset.Set
		for _, e := range h.TC {
			out = append(out, e.G.Live().Clone())
		}
		return out
	}
	before, want := masks(), refStateOf(h)
	violated := policy.Violations(h, inst.Policies)

	var wg sync.WaitGroup
	run := func(fn func(rng *rand.Rand)) {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				fn(rand.New(rand.NewSource(seed)))
			}(int64(w))
		}
	}
	run(func(*rand.Rand) {
		for i := 0; i < 3; i++ {
			if got := policy.Violations(h, inst.Policies); !reflect.DeepEqual(got, violated) {
				t.Errorf("verification beside writers found %d violations, alone %d", len(got), len(violated))
			}
			policy.ExplainAll(h, inst.Policies)
		}
	})
	run(func(rng *rand.Rand) {
		for i := 0; i < 200; i++ {
			failed := bitset.New(len(h.Links))
			for j := 0; j < 3; j++ {
				failed.Put(rng.Intn(len(h.Links)), true)
			}
			e := h.TC[rng.Intn(len(h.TC))].WithoutLinks(failed)
			e.G.PathExists(e.Src, e.Dst)
		}
	})
	run(func(rng *rand.Rand) {
		for i := 0; i < 200; i++ {
			etg := h.TC[rng.Intn(len(h.TC))]
			g := etg.G.View(nil, nil)
			for j := 0; j < 5; j++ {
				g.RemoveEdge(graph.E(rng.Intn(len(h.Slots))))
			}
			g.PathExists(etg.Src, etg.Dst)
		}
	})
	run(func(*rand.Rand) {
		if _, err := greedy.Repair(h, repairable); err != nil {
			t.Errorf("greedy: %v", err)
		}
		for _, r := range []int{0, len(h.TCs) / 2, len(h.TCs) - 1} {
			// Each kind alone, so that all three repairs (one of which removes
			// edges from a graph built from the state) run.
			for _, p := range []policy.Policy{
				{Kind: policy.AlwaysBlocked, TC: h.TCs[r]},
				{Kind: policy.AlwaysWaypoint, TC: h.TCs[r]},
				{Kind: policy.KReachable, TC: h.TCs[r], K: 2},
			} {
				greedy.Repair(h, []policy.Policy{p}) // an error is "not repairable by this baseline"
			}
		}
	})
	run(func(rng *rand.Rand) {
		st := harc.StateOf(h)
		for i := 0; i < 400; i++ {
			id := rng.Intn(len(h.Slots))
			switch rng.Intn(6) {
			case 0:
				st.SetAll(id, !st.All.Has(id))
			case 1:
				r := rng.Intn(len(st.Dst))
				st.SetDst(r, id, !st.Dst[r].Has(id))
			case 2:
				r := rng.Intn(len(st.TC))
				st.SetTC(r, id, !st.TC[r].Has(id))
			case 3:
				r, p := rng.Intn(len(st.RouteFilter)), rng.Intn(len(h.Procs))
				st.SetRouteFilter(r, p, !st.RouteFilter[r].Has(p))
			case 4:
				r := rng.Intn(len(st.Static))
				st.SetStatic(r, id, !st.Static[r].Has(id))
			case 5:
				l := rng.Intn(len(h.Links))
				st.SetWaypoint(l, !st.Waypoint.Has(l))
			}
		}
		if st.Equal(harc.StateOf(h)) {
			t.Error("400 flips left the clone equal to the HARC's state")
		}
	})
	wg.Wait()

	assertMatchesReference(t, h, harc.StateOf(h), want)
	if !reflect.DeepEqual(masks(), before) {
		t.Fatal("an ETG of the HARC no longer shows the slots it was built with")
	}
	if err := h.ValidateState(harc.StateOf(h)); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocBudget is the allocation gate on harc.Build: with tcETGs
// as views, a build allocates the slot table, one state (a handful of
// backing arrays however many rows) and two small headers per class —
// 7,476 allocations and 0.75 MB on the fattree-k8 preset (992 classes over
// 656 slots; ≈8,050 and 0.79 MB in a -race build), where one dense graph
// per class took 24,794 and 50.8 MB. The ceilings sit just above; per-class
// graphs cannot come back without tripping them. Raising one needs a
// reason in the commit that does it.
func TestBuildAllocBudget(t *testing.T) {
	inst, err := generate.Preset("fattree-k8", 11)
	if err != nil {
		t.Fatal(err)
	}
	n := inst.Network
	var h *harc.HARC
	allocs := testing.AllocsPerRun(3, func() { h = harc.Build(n) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h = harc.Build(n)
	runtime.ReadMemStats(&m1)
	bytes := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("harc.Build(fattree-k8): %d classes, %d slots: %.0f allocs, %d bytes", len(h.TC), len(h.Slots), allocs, bytes)
	const maxAllocs, maxBytes = 8300, 830_000
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("harc.Build(fattree-k8): %.0f allocs / %d bytes, ceilings %d / %d", allocs, bytes, maxAllocs, maxBytes)
	}
}
