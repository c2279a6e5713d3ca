package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/compress"
	"repro/internal/faultinject"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// CompressMode selects the Bonsai-style symmetry-compression front end
// (internal/compress): repair eligible per-destination sub-problems on
// a quotient network of role-equivalence classes, then concretize the
// abstract patch onto every class member and re-verify it on the
// uncompressed state.
type CompressMode int

// Compression modes.
const (
	// CompressAuto (the default) compresses eligible sub-problems when
	// the network is large enough to plausibly pay for the quotient
	// construction (compressAutoMinDevices).
	CompressAuto CompressMode = iota
	// CompressOn compresses every eligible sub-problem regardless of
	// network size.
	CompressOn
	// CompressOff disables compression.
	CompressOff
)

func (m CompressMode) String() string {
	switch m {
	case CompressOn:
		return "on"
	case CompressOff:
		return "off"
	}
	return "auto"
}

// compressAutoMinDevices is the network size at which CompressAuto
// engages: below it the quotient bookkeeping costs more than the
// uncompressed solve (the paper's own scenarios top out at 24 routers).
const compressAutoMinDevices = 24

// compressEligible reports whether a sub-problem may be solved on a
// quotient. PC4 and isolation policies are excluded: link costs are
// global and isolation couples destinations, so neither survives
// per-class collapsing.
func compressEligible(h *harc.HARC, pr *problem, opts Options) bool {
	if !pr.freeze {
		return false
	}
	switch opts.Compress {
	case CompressOff:
		return false
	case CompressAuto:
		if h.Network.NumDevices() < compressAutoMinDevices {
			return false
		}
	}
	for _, p := range pr.policies {
		switch p.Kind {
		case policy.PrimaryPath, policy.Isolated:
			return false
		}
	}
	return true
}

// compressRedundancy derives the representatives kept per class: at
// least the largest PC3 K of the problem (collapsing below K destroys
// the K-link-disjoint structure the policy needs), with a floor of 2 so
// class-internal path diversity survives.
func compressRedundancy(pr *problem, opts Options) int {
	if opts.CompressRedundancy > 0 {
		return opts.CompressRedundancy
	}
	r := 2
	for _, p := range pr.policies {
		if p.Kind == policy.KReachable && p.K > r {
			r = p.K
		}
	}
	return r
}

// buildQuotient constructs the quotient problem of one compression-
// eligible sub-problem: the quotient network (shared by every sub-problem
// of the repair with the same compression spec), the sub-problem's classes
// and policies rebound onto it, and its HARC. It records the quotient's
// shape and the HARC build time in the problem's stats. A non-empty stage
// names why there is no quotient problem to solve (the CompressFallback
// stage) and leaves the other results unusable.
func buildQuotient(tb *tables, pr *problem, opts Options) (sq *sharedQuotient, qh *harc.HARC, qtcs []topology.TrafficClass, qpolicies []policy.Policy, stage string) {
	sq, err := tb.quotient(compress.Spec{
		TCs:        pr.tcs,
		Redundancy: compressRedundancy(pr, opts),
	})
	if err != nil {
		return nil, nil, nil, nil, "quotient"
	}
	q := sq.q
	pr.stat.DeviceClasses = len(q.Classes)
	pr.stat.QuotientDevices = q.Net.NumDevices()
	pr.stat.CompressRatio = q.Ratio()
	// A quotient no smaller than the network cannot pay for itself.
	if opts.Compress != CompressOn && 4*q.Net.NumDevices() > 3*tb.h.Network.NumDevices() {
		return nil, nil, nil, nil, "incompressible"
	}
	qtcs, qpolicies, err = remapToQuotient(q.Net, pr)
	if err != nil {
		return nil, nil, nil, nil, "remap"
	}
	t0 := time.Now()
	qh = harc.BuildLite(q.Net, qtcs)
	pr.stat.HarcBuildNs += time.Since(t0).Nanoseconds()
	return sq, qh, qtcs, qpolicies, ""
}

// tryCompressed attempts the compressed solve for one sub-problem:
// build the quotient, repair it with the unchanged encoder, concretize
// the patch onto every class member, and accept only if the realized
// state satisfies the sub-problem's policies on the uncompressed HARC.
// On success the problem is marked solved with the realized state
// staged for the serial merge; on any failure it records the fallback
// stage in the stats and returns false so the caller proceeds with the
// normal uncompressed path.
func tryCompressed(ctx context.Context, w *worker, tb *tables, orig *harc.State, pr *problem, opts Options) (ok bool) {
	h := tb.h
	if !compressEligible(h, pr, opts) {
		return false
	}
	// A panic in the quotient or concretize steps sends the sub-problem
	// down the uncompressed path; solveOnce recovers its own.
	defer func() {
		if r := recover(); r != nil {
			pr.stat.CompressFallback = "panic"
			ok = false
		}
	}()
	sq, qh, qtcs, qpolicies, stage := buildQuotient(tb, pr, opts)
	if stage != "" {
		pr.stat.CompressFallback = stage
		return false
	}
	t0 := time.Now()
	qorig := harc.StateOf(qh)
	pr.stat.HarcBuildNs += time.Since(t0).Nanoseconds()
	enc, cost, status, err := solveOnce(ctx, w, pr, newTables(qh), qorig, qtcs, qpolicies, true, opts, 1)
	var se *SolveError
	switch {
	case errors.As(err, &se) && se.Panic != nil:
		pr.stat.CompressFallback = "panic"
		return false
	case err != nil:
		pr.stat.CompressFallback = "encode"
		return false
	case status != sat.Sat:
		pr.stat.CompressFallback = "solve"
		return false
	case cost == 0:
		// The concrete problem has violations the quotient cannot see
		// (symmetry hid the offending path); compression is unsound here.
		pr.stat.CompressFallback = "trivial"
		return false
	}
	qrep := qorig.Clone()
	enc.extract(qrep)

	t0 = time.Now()
	trial, changes, cok := concretizePatch(h, orig, pr, sq.q, sq.concreteGroups(h), qh, qorig, qrep)
	pr.stat.ConcretizeNs += time.Since(t0).Nanoseconds()
	if !cok {
		pr.stat.CompressFallback = "concretize"
		return false
	}
	t0 = time.Now()
	vok := acceptConcrete(h, trial, pr)
	pr.stat.ReverifyNs += time.Since(t0).Nanoseconds()
	if !vok {
		return false
	}
	pr.realized = trial
	pr.realizedChanges = changes
	pr.stat.Violations = changes
	pr.stat.Status = sat.Sat
	pr.stat.Outcome = OutcomeSolved
	pr.stat.Compressed = true
	if pr.stat.Attempts == 0 {
		pr.stat.Attempts = 1
	}
	return true
}

// acceptConcrete is the acceptance rule for a concretized patch: every
// policy of the sub-problem holds on the concrete trial state. The verdict
// comes from the uncompressed network, never from the abstraction that
// produced the patch, so any over-merge the refiner committed or any edit
// count-based concretization misplaced surfaces here and sends the
// destination down the uncompressed path at stage "reverify" (as does an
// injected core/reverify-error fault). Fallback stages are never cached
// (cacheableOutcome requires an empty stage).
func acceptConcrete(h *harc.HARC, trial *harc.State, pr *problem) bool {
	if faultinject.Eval(faultinject.CoreReverifyError) == nil && len(VerifyRepair(h, trial, pr.policies)) == 0 {
		return true
	}
	pr.stat.CompressFallback = "reverify"
	return false
}

// remapToQuotient rebinds the sub-problem's traffic classes and
// policies onto the quotient network's subnets.
func remapToQuotient(qn *topology.Network, pr *problem) ([]topology.TrafficClass, []policy.Policy, error) {
	remap := func(tc topology.TrafficClass) (topology.TrafficClass, error) {
		src, dst := qn.Subnet(tc.Src.Name), qn.Subnet(tc.Dst.Name)
		if src == nil || dst == nil {
			return topology.TrafficClass{}, fmt.Errorf("core: subnet missing from quotient")
		}
		return topology.TrafficClass{Src: src, Dst: dst}, nil
	}
	qtcs := make([]topology.TrafficClass, 0, len(pr.tcs))
	for _, tc := range pr.tcs {
		qtc, err := remap(tc)
		if err != nil {
			return nil, nil, err
		}
		qtcs = append(qtcs, qtc)
	}
	qpolicies := make([]policy.Policy, 0, len(pr.policies))
	for _, p := range pr.policies {
		qp := p
		qtc, err := remap(p.TC)
		if err != nil {
			return nil, nil, err
		}
		qp.TC = qtc
		qpolicies = append(qpolicies, qp)
	}
	return qtcs, qpolicies, nil
}

// procKind is a device-independent process identifier (what "ospf1"
// names): members of a class run the same kinds.
type procKind struct {
	proto topology.Protocol
	id    int
}

func kindOf(p *topology.Process) procKind { return procKind{p.Proto, p.ID} }

// interGroup identifies a symmetry group of inter-device slots leaving
// one device — (from class, to class, from proc, to proc) — the
// granularity at which quotient repairs transfer to class members.
type interGroup struct {
	fromClass, toClass int
	fromProc, toProc   procKind
}

// interGroups indexes inter-device slots by originating device and
// symmetry group.
type interGroups struct {
	byDev    map[string]map[interGroup][]*arc.Slot // device → group → slots (slot order)
	devOrder map[string][]interGroup               // device → groups in first-seen order
}

func groupInterSlots(h *harc.HARC, classOf map[string]int) *interGroups {
	g := &interGroups{
		byDev:    make(map[string]map[interGroup][]*arc.Slot),
		devOrder: make(map[string][]interGroup),
	}
	for _, s := range h.Slots {
		if s.Kind != arc.SlotInterDevice {
			continue
		}
		from, to := s.FromProc.Device.Name, s.ToProc.Device.Name
		gk := interGroup{classOf[from], classOf[to], kindOf(s.FromProc), kindOf(s.ToProc)}
		m := g.byDev[from]
		if m == nil {
			m = make(map[interGroup][]*arc.Slot)
			g.byDev[from] = m
		}
		if _, seen := m[gk]; !seen {
			g.devOrder[from] = append(g.devOrder[from], gk)
		}
		m[gk] = append(m[gk], s)
	}
	return g
}

// settleCounts transfers a quotient group's construct flips onto the
// concrete slots of the matching group. was/now give a quotient slot's
// construct before and after the quotient repair, has a concrete slot's
// current value, and set applies a flip. A concrete slot that survives
// in the quotient verbatim (same key; always the case on a lossless
// quotient, making the concretized cost byte-exact) takes its twin's
// flip directly; the remaining per-group add/remove counts are settled
// on the other member slots in slot order. It returns the number of
// concrete flips, or ok=false when a quotient edit found no concrete
// home.
func settleCounts(qslots, cslots []*arc.Slot, was, now func(q *arc.Slot) bool, has func(c *arc.Slot) bool, set func(c *arc.Slot, v bool)) (flips int, ok bool) {
	addN, delN := 0, 0
	for _, qs := range qslots {
		w, n := was(qs), now(qs)
		if n && !w {
			addN++
		}
		if w && !n {
			delN++
		}
	}
	if addN == 0 && delN == 0 {
		return 0, true
	}
	twin := make(map[string]*arc.Slot, len(qslots))
	for _, qs := range qslots {
		twin[qs.Key()] = qs
	}
	var unmatched []*arc.Slot
	for _, s := range cslots {
		qs := twin[s.Key()]
		if qs == nil {
			unmatched = append(unmatched, s)
			continue
		}
		w, n := was(qs), now(qs)
		if n != has(s) {
			set(s, n)
			flips++
		}
		// A quotient flip whose concrete twin already had the target value
		// consumes its count without a concrete change.
		if n && !w {
			addN--
		}
		if w && !n {
			delN--
		}
	}
	for _, s := range unmatched {
		if addN > 0 && !has(s) {
			set(s, true)
			flips++
			addN--
		} else if delN > 0 && has(s) {
			set(s, false)
			flips++
			delN--
		}
	}
	return flips, addN <= 0 && delN <= 0
}

// concretizePatch fans the quotient repair out onto the concrete
// network and recomputes the presence the edited constructs imply,
// exactly as the greedy fallback's realization does. The trial state is
// a copy-on-write clone of orig, so only the rows this sub-problem
// writes are ever copied. Quotient and concrete states have different
// shapes: rows meet by subnet name, processes by (representative, kind)
// and slots by key or symmetry group (settleCounts; cGroups is h's inter
// slots grouped by q's classes). Only what the quotient repair changed is
// walked: a group none of whose quotient slots flipped settles to nothing,
// so a destination whose static routes, or a class whose ACL deviations,
// the repair left alone skips its group walk, which gives exactly what
// the walk would. Returns the trial state, the concrete modeled-change
// count, and whether every quotient edit found a concrete home.
func concretizePatch(h *harc.HARC, orig *harc.State, pr *problem, q *compress.Quotient, cGroups *interGroups, qh *harc.HARC, qorig, qrep *harc.State) (*harc.State, int, bool) {
	// Per-destination repairs with no PC4 never touch link costs.
	for ck, v := range qrep.Cost {
		if v != qorig.Cost[ck] {
			return nil, 0, false
		}
	}
	trial := orig.Clone()
	changes := 0
	dsts := pr.dsts()

	// Waypoint additions fan out class-pair-wide: the quotient link's
	// endpoint classes identify every concrete link the middlebox must
	// cover for the PC2 argument to transfer.
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

	// Route filters are per (destination, process): a flip on a
	// representative applies to every member assigned to it.
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
	// eachGroup visits every concrete device's inter-slot groups with the
	// matching group of its representative.
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

	// Static routes: per destination, per group.
	for _, dst := range dsts {
		r, qr := h.DstRow(dst), qh.DstRow(dst)
		if qrep.Static[qr].Equal(qorig.Static[qr]) {
			continue
		}
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
			return nil, 0, false // quotient edit with no concrete home
		}
	}

	for _, dst := range dsts {
		trial.DeriveDst(h.DstRow(dst))
	}

	// tcETG level: a class's row is derived from its destination's, less
	// its deviations (dETG edges the tcETG lacks). Source and dest
	// attachment slots live on concrete (policy endpoint) devices and
	// transfer theirs by identical key; inter slots transfer their
	// deviation deltas per slot or per group like statics do.
	dev := bitset.New(len(h.Slots))
	for _, tc := range pr.tcs {
		r, d := h.TCRow(tc), h.DstRow(tc.Dst)
		origM, origDm := orig.TC[r], orig.Dst[d]
		qm, qom := qrep.TCBits(tc), qorig.TCBits(tc)
		qdm, qodm := qrep.DstBits(tc.Dst), qorig.DstBits(tc.Dst)
		deviated := func(dm, m bitset.Set, id int) bool { return dm.Has(id) && !m.Has(id) }

		// A slot keeps its original deviation unless its group's settling
		// below flips it.
		for i := range dev {
			dev[i] = origDm[i] &^ origM[i]
		}
		if !sameDeviations(qodm, qom, qdm, qm) {
			ok := eachGroup(func(qslots, cslots []*arc.Slot) bool {
				flips, ok := settleCounts(qslots, cslots,
					func(qs *arc.Slot) bool { return deviated(qodm, qom, qs.ID) },
					func(qs *arc.Slot) bool { return deviated(qdm, qm, qs.ID) },
					func(s *arc.Slot) bool { return dev.Has(s.ID) },
					func(s *arc.Slot, v bool) { dev.Put(s.ID, v) })
				changes += flips
				return ok
			})
			if !ok {
				return nil, 0, false
			}
		}

		for id, s := range h.Slots {
			if (s.Kind != arc.SlotSource && s.Kind != arc.SlotDest) || !s.ApplicableTC(tc) {
				continue
			}
			qid := qh.SlotID(s.Key())
			if qid < 0 {
				return nil, 0, false // endpoint slot must exist in the quotient
			}
			// A source attachment's parent is its gateway's route to the
			// destination (harc.State.Deviates), but its change here is
			// counted against its original bit, as the encoder's soft for
			// it is (DESIGN.md, "The ACL rule").
			now, was := deviated(qdm, qm, qid), deviated(origDm, origM, id)
			if s.Kind == arc.SlotSource {
				now, was = !qm.Has(qid), !origM.Has(id)
			}
			if now != was {
				changes++
			}
			dev.Put(id, now)
		}
		trial.DeriveTC(r, dev)
	}
	return trial, changes, true
}

// sameDeviations reports whether the deviations of one class — the slots
// present in its destination's row dm but not in its own row m — are the
// same in two states (a, b), word for word.
func sameDeviations(adm, am, bdm, bm bitset.Set) bool {
	for i := range adm {
		if (adm[i]&^am[i])^(bdm[i]&^bm[i]) != 0 {
			return false
		}
	}
	return true
}
