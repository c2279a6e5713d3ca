package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/compress"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// concretizePatchFull is the concretization as it was before it learnt to
// skip what the quotient repair left alone: it groups the concrete
// network's inter-device slots itself, and settles every group of every
// device for each destination's static routes and each class's ACL
// deviations, flips or no flips. concretizePatch must give exactly its
// trial state and change count (TestConcretizeMatchesFullWalk).
func concretizePatchFull(h *harc.HARC, orig *harc.State, pr *problem, q *compress.Quotient, qh *harc.HARC, qorig, qrep *harc.State) (*harc.State, int, bool) {
	// Per-destination repairs with no PC4 never touch link costs.
	for ck, v := range qrep.Cost {
		if v != qorig.Cost[ck] {
			return nil, 0, false
		}
	}
	trial := orig.Clone()
	changes := 0
	dsts := pr.dsts()

	type cpair struct{ a, b int }
	classes := func(l *topology.Link) cpair {
		a, b := q.ClassOf[l.A.Device.Name], q.ClassOf[l.B.Device.Name]
		if a > b {
			a, b = b, a
		}
		return cpair{a, b}
	}
	wanted := map[cpair]bool{}
	for i, l := range qh.Links {
		if qrep.Waypoint.Has(i) && !qorig.Waypoint.Has(i) {
			wanted[classes(l)] = true
		}
	}
	if len(wanted) > 0 {
		for i, l := range h.Links {
			if wanted[classes(l)] && !trial.Waypoint.Has(i) {
				trial.SetWaypoint(i, true)
				changes++
			}
		}
	}

	type repProc struct {
		rep  string
		kind procKind
	}
	qProc := make(map[repProc]int, len(qh.Procs))
	for pid, p := range qh.Procs {
		qProc[repProc{p.Device.Name, kindOf(p)}] = pid
	}
	for _, d := range h.Network.Devices() {
		if q.Rep[d.Name] == "" {
			return nil, 0, false
		}
	}
	for _, dst := range dsts {
		r, qr := h.DstRow(dst), qh.DstRow(dst)
		for pid, p := range h.Procs {
			qpid, ok := qProc[repProc{q.Rep[p.Device.Name], kindOf(p)}]
			if !ok {
				continue
			}
			v := qrep.RouteFilter[qr].Has(qpid)
			if v == qorig.RouteFilter[qr].Has(qpid) {
				continue
			}
			if trial.RouteFilter[r].Has(pid) != v {
				trial.SetRouteFilter(r, pid, v)
				changes++
			}
		}
	}

	qGroups := groupInterSlots(qh, q.ClassOf)
	cGroups := groupInterSlots(h, q.ClassOf)
	eachGroup := func(visit func(qslots, cslots []*arc.Slot) bool) bool {
		for _, d := range h.Network.Devices() {
			rep := q.Rep[d.Name]
			for _, gk := range cGroups.devOrder[d.Name] {
				if !visit(qGroups.byDev[rep][gk], cGroups.byDev[d.Name][gk]) {
					return false
				}
			}
		}
		return true
	}

	for _, dst := range dsts {
		r, qr := h.DstRow(dst), qh.DstRow(dst)
		ok := eachGroup(func(qslots, cslots []*arc.Slot) bool {
			flips, ok := settleCounts(qslots, cslots,
				func(qs *arc.Slot) bool { return qorig.Static[qr].Has(qs.ID) },
				func(qs *arc.Slot) bool { return qrep.Static[qr].Has(qs.ID) },
				func(s *arc.Slot) bool { return trial.Static[r].Has(s.ID) },
				func(s *arc.Slot, v bool) { trial.SetStatic(r, s.ID, v) })
			changes += flips
			return ok
		})
		if !ok {
			return nil, 0, false
		}
	}

	for _, dst := range dsts {
		trial.DeriveDst(h.DstRow(dst))
	}

	for _, tc := range pr.tcs {
		r, d := h.TCRow(tc), h.DstRow(tc.Dst)
		origM, origDm := orig.TC[r], orig.Dst[d]
		qm, qom := qrep.TCBits(tc), qorig.TCBits(tc)
		qdm, qodm := qrep.DstBits(tc.Dst), qorig.DstBits(tc.Dst)
		deviated := func(dm, m bitset.Set, id int) bool { return dm.Has(id) && !m.Has(id) }

		plan := map[int]bool{}
		ok := eachGroup(func(qslots, cslots []*arc.Slot) bool {
			flips, ok := settleCounts(qslots, cslots,
				func(qs *arc.Slot) bool { return deviated(qodm, qom, qs.ID) },
				func(qs *arc.Slot) bool { return deviated(qdm, qm, qs.ID) },
				func(s *arc.Slot) bool {
					if v, planned := plan[s.ID]; planned {
						return v
					}
					return deviated(origDm, origM, s.ID)
				},
				func(s *arc.Slot, v bool) { plan[s.ID] = v })
			changes += flips
			return ok
		})
		if !ok {
			return nil, 0, false
		}

		dm := trial.Dst[d]
		for id, s := range h.Slots {
			if !s.ApplicableTC(tc) {
				continue
			}
			switch s.Kind {
			case arc.SlotSource:
				qid := qh.SlotID(s.Key())
				if qid < 0 {
					return nil, 0, false
				}
				v := qm.Has(qid)
				if v != origM.Has(id) {
					changes++
				}
				trial.SetTC(r, id, v && !trial.RouteFilter[d].Has(s.ToProcID))
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				trial.SetTC(r, id, dm.Has(id))
			case arc.SlotDest:
				qid := qh.SlotID(s.Key())
				if qid < 0 {
					return nil, 0, false
				}
				now := deviated(qdm, qm, qid)
				if now != deviated(origDm, origM, id) {
					changes++
				}
				trial.SetTC(r, id, dm.Has(id) && !now)
			case arc.SlotInterDevice:
				dev, planned := plan[id]
				if !planned {
					dev = deviated(origDm, origM, id)
				}
				trial.SetTC(r, id, dm.Has(id) && !dev)
			}
		}
	}
	return trial, changes, true
}

// walked counts the quotient repairs concretizeBoth compared, and those
// among them that changed a destination's static routes or a class's ACL
// deviations — the two walks concretizePatch may skip.
type walked struct{ compared, statics, deviations int }

// concretizeBoth solves every compressible sub-problem of a repair of h on
// its quotient, as tryCompressed does, and concretizes each quotient
// repair both ways.
func concretizeBoth(t *testing.T, name string, h *harc.HARC, ps []policy.Policy, opts Options, n *walked) {
	t.Helper()
	problems, err := buildProblems(h, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, orig, w := newTables(h), harc.StateOf(h), newWorker()
	for _, pr := range problems {
		if !compressEligible(h, pr, opts) {
			continue
		}
		sq, qh, qtcs, qpolicies, stage := buildQuotient(tb, pr, opts)
		if stage != "" {
			continue
		}
		qorig := harc.StateOf(qh)
		enc := newEncoder(w, sat.New(), newTables(qh), qorig, qtcs, qpolicies, true, opts)
		if err := enc.encode(context.Background()); err != nil {
			t.Fatalf("%s/%s: encode: %v", name, pr.label, err)
		}
		if _, status := enc.solve(context.Background()); status != sat.Sat {
			continue
		}
		qrep := qorig.Clone()
		enc.extract(qrep)
		for _, dst := range pr.dsts() {
			if r := qh.DstRow(dst); !qrep.Static[r].Equal(qorig.Static[r]) {
				n.statics++
				break
			}
		}
		for _, tc := range pr.tcs {
			if !sameDeviations(qorig.DstBits(tc.Dst), qorig.TCBits(tc), qrep.DstBits(tc.Dst), qrep.TCBits(tc)) {
				n.deviations++
				break
			}
		}
		got, gotN, gotOK := concretizePatch(h, orig, pr, sq.q, sq.concreteGroups(h), qh, qorig, qrep)
		want, wantN, wantOK := concretizePatchFull(h, orig, pr, sq.q, qh, qorig, qrep)
		switch {
		case gotOK != wantOK:
			t.Errorf("%s/%s: concretized %v, the full walk %v", name, pr.label, gotOK, wantOK)
		case !gotOK:
		case gotN != wantN:
			t.Errorf("%s/%s: %d changes, the full walk %d", name, pr.label, gotN, wantN)
		case !got.Equal(want):
			t.Errorf("%s/%s: trial state differs from the full walk's", name, pr.label)
		}
		n.compared++
	}
}

// passiveUplink is a k=4 fat-tree whose edge0-0 forms no adjacency with
// agg0-0: the classes from its host keep one uplink, so their PC3 K=2
// policies fail, and a per-destination repair, which cannot add an
// adjacency, adds static routes over the passive link.
func passiveUplink(t *testing.T) *generate.Instance {
	t.Helper()
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 2, PC2: 1, PC3: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inst.Configs["edge0-0"].Routers {
		r.Passive = append(r.Passive, "eth0") // the link to agg0-0
	}
	if err := inst.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestConcretizeMatchesFullWalk holds the concretization that skips
// untouched destinations and classes to the full walk, in trial state and
// change count, on every compressible sub-problem of dc-256, dc-512, the
// broken k=8 fat-tree of TestCompressedRepairFatTree, the FuzzCompress
// seeds (odd ones lossless, as there) and a fat-tree repaired by static
// routes — so that both skips meet repairs that do and do not need them.
func TestConcretizeMatchesFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every quotient sub-problem of dc-256 and dc-512")
	}
	var n walked
	for _, name := range []string{"dc-256", "dc-512"} {
		inst, err := generate.Preset(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		concretizeBoth(t, name, inst.Harc(), inst.Policies, DefaultOptions(), &n)
	}
	ft, err := generate.FatTree(generate.FatTreeOptions{K: 8, PC1: 6, PC2: 2, PC3: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft, 13, 5); err != nil {
		t.Fatal(err)
	}
	on := DefaultOptions()
	on.Compress = CompressOn
	concretizeBoth(t, "fattree-k8", ft.Harc(), ft.Policies, on, &n)
	pu := passiveUplink(t)
	concretizeBoth(t, "passive-uplink", pu.Harc(), pu.Policies, on, &n)
	for seed := int64(1); seed <= 8; seed++ {
		// The instance CheckCompress draws for the seed.
		rng := rand.New(rand.NewSource(seed))
		inst, err := generate.FatTree(generate.FatTreeOptions{
			K: 4, SubnetsPerEdge: 1,
			PC1: rng.Intn(3), PC2: rng.Intn(2), PC3: 1 + rng.Intn(2), PC4: rng.Intn(2),
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := generate.BreakFatTree(inst, seed+1, rng.Intn(3)); err != nil {
			t.Fatal(err)
		}
		opts := on
		if seed%2 != 0 {
			opts.CompressRedundancy = 1 << 20
		}
		concretizeBoth(t, fmt.Sprintf("compress-seed-%d", seed), inst.Harc(), inst.Policies, opts, &n)
	}
	t.Logf("%d quotient repairs concretized both ways; %d changed static routes, %d ACL deviations", n.compared, n.statics, n.deviations)
	if n.compared < 20 || n.statics == 0 || n.deviations == 0 {
		t.Fatalf("%d quotient repairs compared, %d with static routes, %d with deviations: want 20 and one of each", n.compared, n.statics, n.deviations)
	}
}
