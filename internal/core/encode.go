// Package core implements CPR's central contribution: casting control
// plane repair as a MaxSMT problem over HARC edge variables (paper §5).
//
// Hard constraints encode the policy classes of Figure 5 (constraints
// 1-17) and HARC well-formedness (constraints 18-19); soft constraints
// implement Table 2, making the optimal model the minimal-change repair.
// Problems are solved either over all traffic classes at once
// (maxsmt-all-tcs) or decomposed per destination and solved in parallel
// (maxsmt-per-dst, §5.3).
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/bv"
	"repro/internal/smt/formula"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// encoder builds the MaxSMT problem for one group of traffic classes.
//
// Constraints are built as formula handles in a worker's scratch arena
// and written out as one CNF stream, which the encoder's own solver loads
// in a single step at the end of encode (see DESIGN.md, "Interned
// encoding"). Edge variables are looked up in dense tables indexed by
// (local tc/dst index, slot id); the original state is read the same
// way, a bit per (row, slot id). The shared read-only tables
// (applicability, vertex spaces) come precomputed from the per-repair
// tables value, so parallel per-dst encoders never recompute them.
type encoder struct {
	tb   *tables
	st   *harc.State // original state
	opts Options

	tcs      []topology.TrafficClass
	dsts     []*topology.Subnet
	policies []policy.Policy
	// tcRow/dstRow are the HARC rows of tcs/dsts (state rows and tables
	// rows alike); tcLocal inverts tcRow (HARC row → local index) and
	// tcDst is each local class's local destination.
	tcRow, dstRow []int
	tcLocal       []int32
	tcDst         []int

	// freezeAll pins aETG variables to their original values (per-dst
	// decomposition: repairs are restricted to per-destination constructs
	// so per-problem solutions merge without conflicts, §5.3).
	freezeAll bool

	s *sat.Solver
	// b and p are the worker's constraint-building scratch, borrowed from
	// newEncoder until encode returns; afterwards the encoder reads its
	// variables through lits (variable ordinal → solver literal + 1, 0 if
	// no constraint used it, or past its end), the builder's own table,
	// read in place until the worker's next encode resets it. store is the
	// worker's storage the encoder works in.
	b     *formula.Builder
	p     *formula.Pool
	lits  []sat.Lit
	store *encStorage

	// Dense variable tables. Rows are indexed by slot id (rfVar: process
	// id); zero entries mark inapplicable slots. tVar/dVar/stVar/rfVar
	// outer dimensions are the local tc/dst indices.
	aVar  []formula.F   // canonical slot index → aETG variable
	tVar  [][]formula.F // tcETG edge variables
	dVar  [][]formula.F // dETG edge variables
	stVar [][]formula.F // static-route construct variables (inter slots)
	rfVar [][]formula.F // route-filter construct variables (proc index)

	softs   []sat.Lit
	weights []int
	// byDevice collects keep-formulas per device for the MinDevices
	// objective (§5.2's "minimal number of devices changed").
	byDevice map[string][]formula.F

	costVecs   map[string]bv.Vec // CostKey → cost variable (PC4 problems)
	costOrder  []string
	wedgeVars  []formula.F // link id → waypoint variable (zero until used)
	wedgeOrder []int
}

// PC4 arithmetic widths: edge-cost variables are costBits wide (costs
// range 1..2^costBits-1), distance labels distBits wide.
const (
	costBits = 4
	distBits = 8
)

func constBool(v bool) formula.F {
	if v {
		return formula.True
	}
	return formula.False
}

// aclDevice returns the device whose ACL realizes a tc-level deviation
// on the slot (mirrors the translator's placement).
func aclDevice(s *arc.Slot) string {
	switch s.Kind {
	case arc.SlotInterDevice:
		return s.ToIntf.Device.Name
	case arc.SlotSource, arc.SlotDest:
		return s.Intf.Device.Name
	default:
		return s.FromProc.Device.Name
	}
}

// encStorage is the storage a worker's attempts encode and solve in: the
// soft and weight lists, the backing of the dense variable tables, the
// scratch a policy's own constraints are written from and the OLL scratch
// the solve works in. Each encoder starts from what the last one left, so
// a worker allocates it for its first sub-problem and, with an eighth to
// spare, for any later one too large for it (DESIGN.md, "The capacity
// rule"); the model table an encoder reads is the worker's builder's.
type encStorage struct {
	softs   []sat.Lit
	weights []int
	rows    []formula.F
	// vars, lits and clause are one policy's scratch, which the next
	// policy overwrites: its private variables (PC1's reach, PC2's nw,
	// PC4's unreach), PC3's path literals, and the clause being assembled.
	vars   []formula.F
	lits   []sat.Lit
	clause []sat.Lit
	oll    maxsat.Scratch
}

// scratch returns *buf resliced to length n, replaced (contents lost) by
// one with an eighth to spare when it is too small.
func scratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n, n+n/8)
	}
	*buf = (*buf)[:n]
	return *buf
}

// rowsOf returns n zeroed handles for the dense variable tables.
func (st *encStorage) rowsOf(n int) []formula.F {
	rows := scratch(&st.rows, n)
	clear(rows)
	return rows
}

// freshVars returns n fresh variables of p in the policy scratch.
func (st *encStorage) freshVars(p *formula.Pool, n int) []formula.F {
	vars := scratch(&st.vars, n)
	for i := range vars {
		vars[i] = p.Fresh()
	}
	return vars
}

// newEncoder sets up a sub-problem's variables in w, the calling worker:
// its scratch builder, which it resets and holds until encode returns,
// and its storage. solver must be empty: new, or reset by the worker.
func newEncoder(w *worker, solver *sat.Solver, tb *tables, st *harc.State, tcs []topology.TrafficClass, policies []policy.Policy, freezeAll bool, opts Options) *encoder {
	solver.Budget = opts.ConflictBudget
	w.b.Reset()
	pool := w.b.Pool()
	e := &encoder{
		tb: tb, st: st, opts: opts,
		tcs: tcs, policies: policies, freezeAll: freezeAll,
		s: solver, b: w.b, p: pool, store: &w.store,
		softs: w.store.softs[:0], weights: w.store.weights[:0],
		costVecs:  make(map[string]bv.Vec),
		wedgeVars: make([]formula.F, len(tb.h.Links)),
		byDevice:  make(map[string][]formula.F),
	}
	nslots, nprocs := len(tb.slots), len(tb.h.Procs)

	// Eagerly create the variables (a variable is just its ordinal; solver
	// variables stay lazy until a constraint uses them). Everything
	// downstream is then a slice index away.
	e.tcLocal = make([]int32, len(tb.h.TCs))
	dstLocal := make([]int, len(tb.h.Dsts)) // HARC row → local index + 1
	e.tcRow = make([]int, len(tcs))
	e.tcDst = make([]int, len(tcs))
	for tl, tc := range tcs {
		tb.need(tc)
		e.tcRow[tl] = tb.h.TCRow(tc)
		e.tcLocal[e.tcRow[tl]] = int32(tl)
		dr := tb.h.DstRow(tc.Dst)
		if dstLocal[dr] == 0 {
			e.dsts = append(e.dsts, tc.Dst)
			e.dstRow = append(e.dstRow, dr)
			dstLocal[dr] = len(e.dsts)
		}
		e.tcDst[tl] = dstLocal[dr] - 1
	}
	// Every row of the dense tables is carved from one backing.
	nrows := (len(tcs)+2*len(e.dsts))*nslots + len(e.dsts)*nprocs
	if !freezeAll {
		nrows += nslots
	}
	rows := w.store.rowsOf(nrows)
	row := func(n int) []formula.F {
		r := rows[:n:n]
		rows = rows[n:]
		return r
	}
	e.tVar = make([][]formula.F, len(tcs))
	for tl := range tcs {
		e.tVar[tl] = row(nslots)
		for _, si := range tb.tc[e.tcRow[tl]].slots {
			e.tVar[tl][si] = pool.Fresh()
		}
	}
	e.dVar = make([][]formula.F, len(e.dsts))
	e.stVar = make([][]formula.F, len(e.dsts))
	e.rfVar = make([][]formula.F, len(e.dsts))
	for dl := range e.dsts {
		drow, srow, rrow := row(nslots), row(nslots), row(nprocs)
		for _, si := range tb.dst[e.dstRow[dl]] {
			drow[si] = pool.Fresh()
			if tb.slots[si].Kind == arc.SlotInterDevice {
				srow[si] = pool.Fresh()
			}
		}
		for pi := range rrow {
			rrow[pi] = pool.Fresh()
		}
		e.dVar[dl] = drow
		e.stVar[dl] = srow
		e.rfVar[dl] = rrow
	}
	if !freezeAll {
		e.aVar = row(nslots)
		for si, s := range tb.slots {
			switch s.Kind {
			case arc.SlotInterDevice:
				if s.Canon == si {
					e.aVar[si] = pool.Fresh()
				}
			case arc.SlotIntraRedist:
				e.aVar[si] = pool.Fresh()
			}
		}
	}
	return e
}

// tl returns the local index of a policy's traffic class.
func (e *encoder) tl(tc topology.TrafficClass) int { return int(e.tcLocal[e.tb.h.TCRow(tc)]) }

// lit returns the solver literal of variable f once encode has loaded the
// solver, or ok=false for the zero handle and for variables no
// constraint used.
func (e *encoder) lit(f formula.F) (sat.Lit, bool) {
	if f == 0 || f.Var() >= len(e.lits) {
		return 0, false
	}
	l := e.lits[f.Var()]
	return l - 1, l != 0
}

// value reads variable f from the solver's model (unused variables are
// false).
func (e *encoder) value(f formula.F) bool {
	l, ok := e.lit(f)
	return ok && e.s.ValueLit(l)
}

// eA returns the aETG presence formula for the slot at index si. Self
// edges always exist in the aETG; inter-device slots share one variable
// per adjacency (both directions); in per-dst mode the aETG is frozen to
// its original value.
func (e *encoder) eA(si int) formula.F {
	s := e.tb.slots[si]
	if s.Kind == arc.SlotIntraSelf {
		return formula.True
	}
	if e.freezeAll {
		return constBool(e.st.All.Has(si))
	}
	return e.aVar[s.Canon]
}

// wedge returns the waypoint formula for an inter-device slot's link.
// Existing middleboxes stay in place; repairs may only add waypoints
// (footnote 2 of the paper), which keeps per-destination sub-problems
// mergeable.
func (e *encoder) wedge(si int32) formula.F {
	s := e.tb.slots[si]
	if s.Kind != arc.SlotInterDevice {
		// Intra-device waypoint (device middlebox) is not repairable.
		return constBool(s.Waypoint())
	}
	link := s.LinkID
	if e.st.Waypoint.Has(link) {
		return formula.True
	}
	if f := e.wedgeVars[link]; f != 0 {
		return f
	}
	f := e.p.Fresh()
	e.wedgeVars[link] = f
	e.wedgeOrder = append(e.wedgeOrder, link)
	return f
}

// cost returns the bitvector cost of the slot at index si for PC4
// arithmetic: a shared variable per egress interface for inter-device
// slots (constraint 13's sharing rule), zero otherwise.
func (e *encoder) cost(si int32) bv.Vec {
	ck := e.tb.slots[si].CostKey()
	if ck == "" {
		return bv.Const(0, 1)
	}
	if v, ok := e.costVecs[ck]; ok {
		return v
	}
	v := bv.Fresh(e.p, costBits)
	e.costVecs[ck] = v
	e.costOrder = append(e.costOrder, ck)
	// Constraint 13: cost > 0.
	e.b.Assert(bv.NonZero(e.p, v))
	return v
}

// soft registers a keep-formula attributed to a device. Under the
// MinLines objective each formula is one unit-weight soft (Table 2);
// under MinDevices the per-device conjunctions become the softs.
func (e *encoder) soft(device string, f formula.F) {
	if e.opts.Objective == MinDevices {
		e.byDevice[device] = append(e.byDevice[device], f)
		return
	}
	e.softs = append(e.softs, e.b.Lit(f))
	e.weights = append(e.weights, 1)
}

// finalizeSofts emits the per-device softs for MinDevices.
func (e *encoder) finalizeSofts() {
	if e.opts.Objective != MinDevices {
		return
	}
	names := make([]string, 0, len(e.byDevice))
	for name := range e.byDevice {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e.softs = append(e.softs, e.b.Lit(e.p.And(e.byDevice[name]...)))
		e.weights = append(e.weights, 1)
	}
}

// encode builds the MaxSMT problem. Encoding large problems takes as
// long as solving them, so it polls ctx between policies — the loop
// dominates encoding time — and cancellation surfaces as ctx's error.
func (e *encoder) encode(ctx context.Context) error {
	// However encode ends, the scratch is the worker's again.
	defer func() { e.b, e.p = nil, nil }()
	if err := ctx.Err(); err != nil {
		return err
	}
	if faultinject.Enabled() {
		if err := faultinject.Eval(faultinject.CoreEncodeError); err != nil {
			return err
		}
		// Slow-encode site: sleeps (or runs a test callback), then honors
		// any cancellation that arrived while stalled.
		faultinject.Eval(faultinject.CoreEncodeSlow)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	e.hierarchyConstraints()
	for _, p := range e.policies {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.policyConstraints(p); err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	e.classSofts()
	e.constructSofts()
	e.s.Load(e.b.NumVars(), e.b.Stream()...)
	// The lists may have grown; the worker's next encoder starts from what
	// they are.
	e.store.softs, e.store.weights = e.softs[:0], e.weights[:0]
	e.lits = e.b.VarTable()
	e.seedPhases()
	return nil
}

// seedPhases biases the solver's initial polarities toward the original
// HARC state, so the first model found violates few soft constraints.
// This keeps the MaxSAT descent's cardinality encoding small (it is
// truncated at the initial violation count) and dramatically shortens
// the optimization.
func (e *encoder) seedPhases() {
	for tl, r := range e.tcRow {
		tcState := e.st.TC[r]
		for _, si := range e.tb.tc[r].slots {
			if l, ok := e.lit(e.tVar[tl][si]); ok {
				e.s.SetPhase(l.Var(), tcState.Has(int(si)))
			}
		}
	}
	for dl := range e.dsts {
		r := e.dstRow[dl]
		dstState, rf, static := e.st.Dst[r], e.st.RouteFilter[r], e.st.Static[r]
		for _, si := range e.tb.dst[r] {
			s := e.tb.slots[si]
			if l, ok := e.lit(e.dVar[dl][si]); ok {
				e.s.SetPhase(l.Var(), dstState.Has(si))
			}
			switch s.Kind {
			case arc.SlotIntraSelf:
				if l, ok := e.lit(e.rfVar[dl][s.FromProcID]); ok {
					e.s.SetPhase(l.Var(), rf.Has(s.FromProcID))
				}
			case arc.SlotInterDevice:
				if l, ok := e.lit(e.stVar[dl][si]); ok {
					e.s.SetPhase(l.Var(), static.Has(si))
				}
			}
		}
	}
	if !e.freezeAll {
		for si, s := range e.tb.slots {
			switch s.Kind {
			case arc.SlotInterDevice, arc.SlotIntraRedist:
			default:
				continue
			}
			if l, ok := e.lit(e.aVar[s.Canon]); ok {
				e.s.SetPhase(l.Var(), e.st.All.Has(si))
			}
		}
	}
	for _, ck := range e.costOrder {
		orig := uint64(e.st.Cost[ck])
		max := uint64(1)<<costBits - 1
		if orig > max {
			orig = max
		}
		for i, bit := range e.costVecs[ck] {
			if l, ok := e.lit(bit); ok {
				e.s.SetPhase(l.Var(), orig&(1<<uint(i)) != 0)
			}
		}
	}
}

// hierarchyConstraints emits Figure 5 constraints 18 and 19. Constraint
// 18 (tcETG ⇒ dETG) is kept as an implication (the gap is an ACL, a
// per-traffic-class construct); constraint 19 is strengthened into
// structural definitions of dETG edges in terms of the per-destination
// constructs that realize them — route filters and static routes — so
// every satisfying model is directly implementable in configuration.
func (e *encoder) hierarchyConstraints() {
	for tl := range e.tcs {
		dl := e.tcDst[tl]
		for _, si := range e.tb.tc[e.tcRow[tl]].slots {
			switch s := e.tb.slots[si]; s.Kind {
			case arc.SlotSource:
				// A source edge needs the gateway process to have a route
				// to the destination (no route filter).
				e.b.AssertImplies(e.tVar[tl][si], formula.Not(e.rfVar[dl][s.ToProcID]))
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				// ACLs cannot act inside a device: intra tcETG edges equal
				// their dETG edges (Table 3's "invalid modification").
				e.b.AssertIff(e.tVar[tl][si], e.dVar[dl][si])
			default:
				// Constraint 18: tcETG edge ⇒ dETG edge (the gap is an
				// interface ACL).
				e.b.AssertImplies(e.tVar[tl][si], e.dVar[dl][si])
			}
		}
	}
	for dl := range e.dsts {
		// procStatic(p) is true when a static route for dst leaves
		// through process p's links: a FIB-level static also backs the
		// intra edges into p's outgoing vertex.
		procParts := make([][]formula.F, len(e.tb.h.Procs))
		for si, s := range e.tb.slots {
			if s.Kind != arc.SlotInterDevice {
				continue
			}
			procParts[s.FromProcID] = append(procParts[s.FromProcID], e.stVar[dl][si])
		}
		procStatic := func(pi int) formula.F { return e.p.Or(procParts[pi]...) }
		for _, si := range e.tb.dst[e.dstRow[dl]] {
			s := e.tb.slots[si]
			switch s.Kind {
			case arc.SlotIntraSelf:
				// A process forwards toward dst unless it filters the
				// route — or a static route makes the FIB authoritative.
				from := s.FromProcID
				e.b.AssertIff(e.dVar[dl][si], e.p.Or(
					formula.Not(e.rfVar[dl][from]),
					procStatic(from),
				))
			case arc.SlotIntraRedist:
				// Redistribution edge: configured and unfiltered, or
				// static-backed at the device level.
				from := s.FromProcID
				e.b.AssertIff(e.dVar[dl][si], e.p.Or(
					e.p.And(
						e.eA(si),
						formula.Not(e.rfVar[dl][s.ToProcID]),
						formula.Not(e.rfVar[dl][from]),
					),
					procStatic(from),
				))
			case arc.SlotInterDevice:
				// Constraint 19: adjacency-backed (and the receiver
				// advertises dst) or static-backed.
				e.b.AssertIff(e.dVar[dl][si], e.p.Or(
					e.p.And(e.eA(si), formula.Not(e.rfVar[dl][s.ToProcID])),
					e.stVar[dl][si],
				))
			case arc.SlotDest:
				e.b.AssertIff(e.dVar[dl][si], formula.Not(e.rfVar[dl][s.FromProcID]))
			}
		}
	}
}

func (e *encoder) policyConstraints(p policy.Policy) error {
	switch p.Kind {
	case policy.AlwaysBlocked:
		e.encodePC1(p)
	case policy.AlwaysWaypoint:
		e.encodePC2(p)
	case policy.KReachable:
		e.encodePC3(p)
	case policy.PrimaryPath:
		return e.encodePC4(p)
	case policy.Isolated:
		e.encodeIsolation(p)
	default:
		return fmt.Errorf("core: unsupported policy kind %v", p.Kind)
	}
	return nil
}

// encodeIsolation forbids the two traffic classes from sharing any ETG
// edge (§5.1: edge_tc1 ⇒ ¬edge_tc2 and vice versa).
func (e *encoder) encodeIsolation(p policy.Policy) {
	t1 := e.tVar[e.tl(p.TC)]
	t2 := e.tVar[e.tl(p.TC2)]
	for si := range e.tb.slots {
		if t1[si] != 0 && t2[si] != 0 {
			e.b.Assert(formula.Not(e.p.And(t1[si], t2[si])))
		}
	}
}

// encodePC1 emits Figure 5 constraints 1-3 in their SRC-rooted
// reachability-closure form: reach(SRC) holds, presence propagates
// reachability along edges, and reach(DST) is forbidden. The reach
// variables are the policy's own, so each edge's premise, edge ∧
// reach(tail), is defined in place.
func (e *encoder) encodePC1(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]
	reach := e.store.freshVars(e.p, t.nv)
	e.b.Assert(reach[0]) // SRC
	for k, si := range t.slots {
		premise := e.b.DefineAnd(e.b.Lit(e.tVar[tl][si]), e.b.Lit(reach[t.fromV[k]]))
		e.b.Binary(premise.Not(), e.b.Lit(reach[t.toV[k]]))
	}
	e.b.Assert(formula.Not(reach[1])) // DST
}

// encodePC2 emits Figure 5 constraints 4-6: no waypoint-free path from
// SRC to DST may exist, where wedge variables mark waypoint-carrying
// edges (repairs may add waypoints, footnote 2). Each edge's premise,
// edge ∧ ¬wedge ∧ nw(tail), is defined in place over the policy's own nw
// variables, its constant wedge folded as Pool.And folds it: an edge
// that carries a waypoint propagates nothing.
func (e *encoder) encodePC2(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]
	nw := e.store.freshVars(e.p, t.nv)
	e.b.Assert(nw[0]) // SRC
	for k, si := range t.slots {
		var premise sat.Lit
		switch w := e.wedge(si); w {
		case formula.True:
			continue
		case formula.False:
			premise = e.b.DefineAnd(e.b.Lit(e.tVar[tl][si]), e.b.Lit(nw[t.fromV[k]]))
		default:
			premise = e.b.DefineAnd(e.b.Lit(e.tVar[tl][si]), e.b.Lit(formula.Not(w)), e.b.Lit(nw[t.fromV[k]]))
		}
		e.b.Binary(premise.Not(), e.b.Lit(nw[t.toV[k]]))
	}
	e.b.Assert(formula.Not(nw[1])) // DST
}

// encodePC3 emits Figure 5 constraints 7-12: K link-disjoint paths must
// exist in the tcETG. Every composite here is over the policy's own path
// variables, so constraints 7-11 are written as clauses and constraint
// 12's disjunctions and conjunctions are defined in place.
func (e *encoder) encodePC3(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]
	n := len(t.slots)
	// pe[j*n+k] selects the slot at position k into path j.
	lits := scratch(&e.store.lits, p.K*n+p.K)
	pe, used := lits[:p.K*n], lits[p.K*n:]
	for j := 0; j < p.K; j++ {
		path := pe[j*n : (j+1)*n]
		// Constraint 7: path edges exist in the tcETG. A path's variables
		// are numbered here, in position order.
		for k, si := range t.slots {
			path[k] = e.b.Lit(e.p.Fresh())
			e.b.Binary(path[k].Not(), e.b.Lit(e.tVar[tl][si]))
		}
		// Constraint 8: the path leaves SRC.
		e.b.Clause(e.gather(0, path, t.byTail.at(0))...)
		// Constraint 9: the path enters DST.
		e.b.Clause(e.gather(0, path, t.byHead.at(1))...)
		// Constraint 10: a selected edge out of a non-SRC vertex v needs a
		// selected edge into v.
		for vi := 1; vi < t.nv; vi++ {
			outs := t.byTail.at(vi)
			if len(outs) == 0 {
				continue
			}
			c := e.gather(1, path, t.byHead.at(vi))
			for _, k := range outs {
				c[0] = path[k].Not()
				e.b.Clause(c...)
			}
		}
		// Constraint 11: a selected edge into a non-DST vertex v needs
		// exactly one selected edge out of v.
		for vi := 0; vi < t.nv; vi++ {
			ins := t.byHead.at(vi)
			if vi == 1 || len(ins) == 0 { // vertex 1 is DST
				continue
			}
			c := e.gather(1, path, t.byTail.at(vi))
			for _, k := range ins {
				c[0] = path[k].Not()
				e.b.Clause(c...)
			}
			e.b.AtMostOne(c[1:]...)
		}
	}
	// Constraint 12: link-disjointness across the K paths, enforced per
	// physical link (both directions of a link belong to at most one
	// path).
	for li := 0; li < t.links.n(); li++ {
		clear(used)
		for a := 0; a < p.K; a++ {
			for b := a + 1; b < p.K; b++ {
				ua := e.linkUse(used, a, pe[a*n:(a+1)*n], t.links.at(li))
				ub := e.linkUse(used, b, pe[b*n:(b+1)*n], t.links.at(li))
				e.b.Clause(e.b.DefineAnd(ua, ub).Not())
			}
		}
	}
}

// gather returns the clause scratch: head entries for the caller to
// fill, then path's literals at positions.
func (e *encoder) gather(head int, path []sat.Lit, positions []int32) []sat.Lit {
	c := scratch(&e.store.clause, head+len(positions))
	for i, k := range positions {
		c[head+i] = path[k]
	}
	return c
}

// linkUse returns path j's use of the link whose slots sit at positions:
// the literal of its one edge, or the disjunction of its edges, defined
// at its first use, where Lit would number the Or node (for K ≥ 3, path
// 2's comes after the (0, 1) conjunction). used[j] holds it plus one, 0
// until then.
func (e *encoder) linkUse(used []sat.Lit, j int, path []sat.Lit, positions []int32) sat.Lit {
	if used[j] == 0 {
		if len(positions) == 1 {
			used[j] = path[positions[0]] + 1
		} else {
			used[j] = e.b.DefineOr(e.gather(0, path, positions)...) + 1
		}
	}
	return used[j] - 1
}

// encodePC4 emits Figure 5 constraints 13-17: shared positive edge
// costs, exact shortest-path distance labels, and strict preference of
// the required path P at every hop.
func (e *encoder) encodePC4(p policy.Policy) error {
	tc := p.TC
	tl := e.tl(tc)
	dl := e.tcDst[tl]
	t := e.tb.tc[e.tcRow[tl]]

	// Route selection is ACL-blind: distance labels, tightness, and the
	// strict-preference comparisons all range over ROUTING-level edge
	// presence (the dETG), not the tcETG. Encoding them over vT would let
	// the solver "satisfy" PC4 by ACL-blocking a routing-preferred edge —
	// concretely the traffic still routes into that edge and is dropped
	// by the very ACL that was added. Only the source attachment, which
	// exists solely at the tc level, keeps its tc variable.
	pres := func(k int) formula.F {
		si := t.slots[k]
		if e.tb.slots[si].Kind == arc.SlotSource {
			return e.tVar[tl][si]
		}
		return e.dVar[dl][si]
	}

	dist := make([]bv.Vec, t.nv)
	unreach := e.store.freshVars(e.p, t.nv)
	for vi := 0; vi < t.nv; vi++ {
		dist[vi] = bv.Fresh(e.p, distBits)
	}
	// Constraints 14-15: SRC is the root at distance 0.
	bv.AssertEqualConst(e.b, dist[0], 0)
	e.b.Assert(formula.Not(unreach[0]))

	// Relaxation: a present edge from a reachable tail bounds the head's
	// label, and makes the head reachable.
	for k, si := range t.slots {
		u, v := t.fromV[k], t.toV[k]
		premise := e.p.And(pres(k), formula.Not(unreach[u]))
		sum := bv.Add(e.p, dist[u], e.cost(si))
		e.b.AssertImplies(premise, e.p.And(
			formula.Not(unreach[v]),
			bv.LessEq(e.p, dist[v], sum),
		))
	}
	// Tightness (constraint 16's support condition): every reachable
	// non-SRC vertex has an incoming tight edge. With strictly positive
	// inter-device costs and the bipartite I/O structure, support graphs
	// are acyclic, so labels are exactly the shortest distances.
	for vi := 0; vi < t.nv; vi++ {
		if vi == 0 { // SRC
			continue
		}
		var supports []formula.F
		for _, k := range t.byHead.at(int(vi)) {
			u := t.fromV[k]
			supports = append(supports, e.p.And(
				pres(int(k)),
				formula.Not(unreach[u]),
				bv.Equal(e.p, dist[vi], bv.Add(e.p, dist[u], e.cost(t.slots[k]))),
			))
		}
		e.b.AssertOr(unreach[vi], e.p.Or(supports...))
	}

	// Constraint 17: the edges of P exist, are tight, and are strictly
	// preferred over every other incoming edge at each hop.
	chain, err := e.chainSlots(p)
	if err != nil {
		return err
	}
	for _, ck := range chain {
		si := t.slots[ck]
		u, v := t.fromV[ck], t.toV[ck]
		// The chain edge must be usable at the tc level (no ACL may drop
		// traffic on its own primary path); constraint 18 lifts this to
		// routing presence.
		e.b.Assert(e.tVar[tl][si])
		e.b.Assert(formula.Not(unreach[u]))
		chainSum := bv.Add(e.p, dist[u], e.cost(si))
		e.b.Assert(bv.Equal(e.p, dist[v], chainSum))
		for _, ok := range t.byHead.at(int(v)) {
			if int(ok) == ck {
				continue
			}
			w := t.fromV[ok]
			e.b.AssertImplies(
				e.p.And(pres(int(ok)), formula.Not(unreach[w])),
				bv.Less(e.p, chainSum, bv.Add(e.p, dist[w], e.cost(t.slots[ok]))),
			)
		}
	}
	return nil
}

// chainSlots maps a PC4 device path onto the unique slot sequence
// SRC → dev1:O → dev2:I → dev2:O → ... → DST, returned as positions
// into the traffic class's slot list. It requires a single routing
// process per device pair (the common case; ambiguous paths are
// rejected).
func (e *encoder) chainSlots(p policy.Policy) ([]int, error) {
	tc := p.TC
	t := e.tb.tc[e.tcRow[e.tl(tc)]]
	var chain []int

	find := func(pred func(*arc.Slot) bool, what string) (int, error) {
		found := -1
		for k, si := range t.slots {
			if pred(e.tb.slots[si]) {
				if found >= 0 {
					return -1, fmt.Errorf("core: PC4 path for %s is ambiguous at %s (multiple processes)", tc, what)
				}
				found = k
			}
		}
		if found < 0 {
			return -1, fmt.Errorf("core: PC4 path for %s has no candidate slot at %s", tc, what)
		}
		return found, nil
	}

	if len(p.Path) == 0 {
		return nil, fmt.Errorf("core: PC4 policy for %s has empty path", tc)
	}
	first := p.Path[0]
	k, err := find(func(s *arc.Slot) bool {
		return s.Kind == arc.SlotSource && s.ToProc.Device.Name == first
	}, "SRC->"+first)
	if err != nil {
		return nil, err
	}
	chain = append(chain, k)

	for i := 0; i+1 < len(p.Path); i++ {
		from, to := p.Path[i], p.Path[i+1]
		inter, err := find(func(s *arc.Slot) bool {
			return s.Kind == arc.SlotInterDevice &&
				s.FromProc.Device.Name == from && s.ToProc.Device.Name == to
		}, from+"->"+to)
		if err != nil {
			return nil, err
		}
		chain = append(chain, inter)
		// Intra-device hop on the next device (unless it is the last and
		// traffic exits to DST from its I vertex... the DST edge leaves
		// the I vertex, so no intra hop is needed on the final device).
		if i+2 < len(p.Path) {
			self, err := find(func(s *arc.Slot) bool {
				return s.Kind == arc.SlotIntraSelf && s.FromProc.Device.Name == to
			}, "intra "+to)
			if err != nil {
				return nil, err
			}
			chain = append(chain, self)
		}
	}
	last := p.Path[len(p.Path)-1]
	dstSlot, err := find(func(s *arc.Slot) bool {
		return s.Kind == arc.SlotDest && s.FromProc.Device.Name == last
	}, last+"->DST")
	if err != nil {
		return nil, err
	}
	chain = append(chain, dstSlot)
	return chain, nil
}

// classSofts emits Table 2's tcETG-level softs.
func (e *encoder) classSofts() {
	for tl := range e.tcs {
		dl := e.tcDst[tl]
		tcState := e.st.TC[e.tcRow[tl]]
		dstState := e.st.Dst[e.dstRow[dl]]
		for _, si := range e.tb.tc[e.tcRow[tl]].slots {
			origTC := tcState.Has(int(si))
			dev := aclDevice(e.tb.slots[si])
			if e.tb.slots[si].Kind == arc.SlotSource {
				// Source edges have no dETG parent; keeping them as-is
				// avoids an ACL change on the host-facing interface.
				e.soft(dev, e.p.Iff(e.tVar[tl][si], constBool(origTC)))
				continue
			}
			origD := dstState.Has(int(si))
			if origD && !origTC {
				// Deviation (ACL) continues to pay for itself only if the
				// edge stays absent (Table 2 rows 2 and 6).
				e.soft(dev, formula.Not(e.tVar[tl][si]))
			} else {
				e.softIff(dev, e.tVar[tl][si], e.dVar[dl][si])
			}
		}
	}
}

// softIff registers the keep-formula t ↔ d. Under MinLines only this
// soft builds it, so its two implications and their conjunction are
// defined in place, numbered as Lit numbers the interned Iff; under
// MinDevices it joins its device's conjunction, which splices it.
func (e *encoder) softIff(device string, t, d formula.F) {
	if e.opts.Objective == MinDevices {
		e.soft(device, e.p.Iff(t, d))
		return
	}
	lt, ld := e.b.Lit(t), e.b.Lit(d)
	fwd := e.b.DefineOr(lt.Not(), ld)
	back := e.b.DefineOr(ld.Not(), lt)
	e.softs = append(e.softs, e.b.DefineAnd(fwd, back))
	e.weights = append(e.weights, 1)
}

// constructSofts emits Table 2's construct-level softs, then the cost
// and waypoint softs.
func (e *encoder) constructSofts() {
	// dETG-level softs: one per construct, so violated softs count
	// configuration lines exactly (the construct realization of Table 2's
	// per-edge accounting).
	for dl := range e.dsts {
		r := e.dstRow[dl]
		rf, static := e.st.RouteFilter[r], e.st.Static[r]
		seenRF := make([]bool, len(e.tb.h.Procs))
		for _, si := range e.tb.dst[r] {
			s := e.tb.slots[si]
			switch s.Kind {
			case arc.SlotIntraSelf:
				// One route-filter soft per (process, destination).
				pi := s.FromProcID
				if !seenRF[pi] {
					seenRF[pi] = true
					e.soft(e.tb.procDev(pi), e.p.Iff(e.rfVar[dl][pi], constBool(rf.Has(pi))))
				}
			case arc.SlotInterDevice:
				e.soft(e.tb.procDev(s.FromProcID), e.p.Iff(e.stVar[dl][si], constBool(static.Has(si))))
			}
		}
	}
	// aETG-level softs (all-tcs mode only; per-dst freezes the aETG):
	// one per adjacency (canonical direction) and one per redistribution
	// edge.
	if !e.freezeAll {
		for si, s := range e.tb.slots {
			switch s.Kind {
			case arc.SlotInterDevice:
				if s.Canon != si {
					continue // the reverse direction carries the soft
				}
			case arc.SlotIntraRedist:
			default:
				continue
			}
			dev := e.tb.procDev(s.FromProcID)
			if s.Kind == arc.SlotIntraRedist {
				dev = e.tb.procDev(s.ToProcID)
			}
			if e.st.All.Has(si) {
				e.soft(dev, e.eA(si))
			} else {
				e.soft(dev, formula.Not(e.eA(si)))
			}
		}
	}
	// Cost softs: keep each interface cost unchanged (one line per
	// change). CostKey is "<device>/<interface>".
	for _, ck := range e.costOrder {
		vec := e.costVecs[ck]
		orig := e.st.Cost[ck]
		max := int64(1)<<costBits - 1
		if orig > max {
			orig = max
		}
		dev := ck
		if i := strings.IndexByte(ck, '/'); i >= 0 {
			dev = ck[:i]
		}
		e.soft(dev, bv.Equal(e.p, vec, bv.Const(uint64(orig), costBits)))
	}
	// Waypoint softs: adding a middlebox is a change (wedge variables are
	// only created for links without one), weighing one like a
	// configuration line — the paper's implicit accounting; repairs may
	// always add middleboxes to links (footnote 2). Middleboxes are not
	// device configuration; attribute them to a pseudo-device per link.
	for _, link := range e.wedgeOrder {
		e.soft("link:"+e.tb.h.Links[link].Name(), formula.Not(e.wedgeVars[link]))
	}
	e.finalizeSofts()
}

// solve runs MaxSAT in the worker's OLL scratch and returns the
// violated-soft count.
func (e *encoder) solve(ctx context.Context) (int, sat.Status) {
	res := maxsat.SolveWeightedCtx(ctx, e.s, e.softs, e.weights, e.opts.Algorithm, &e.store.oll)
	return res.Cost, res.Status
}

// extract writes the model's constructs into out, a clone of the
// original state: the aETG row when the problem solved it, each
// destination's route filters and static routes, costs and waypoints.
// It then derives the problem's rows from them: each destination's, then
// each class's less its deviations, the ACL-capable slots whose tcETG
// variable the model sets false.
func (e *encoder) extract(out *harc.State) {
	if !e.freezeAll {
		for si, s := range e.tb.slots {
			switch s.Kind {
			case arc.SlotInterDevice, arc.SlotIntraRedist:
			default:
				continue // self edges are constant; attach slots have no aETG level
			}
			if l, ok := e.lit(e.aVar[s.Canon]); ok {
				out.SetAll(si, e.s.ValueLit(l))
			}
		}
	}
	for dl, r := range e.dstRow {
		for _, si := range e.tb.dst[r] {
			switch s := e.tb.slots[si]; s.Kind {
			case arc.SlotIntraSelf:
				if l, ok := e.lit(e.rfVar[dl][s.FromProcID]); ok {
					out.SetRouteFilter(r, s.FromProcID, e.s.ValueLit(l))
				}
			case arc.SlotInterDevice:
				if l, ok := e.lit(e.stVar[dl][si]); ok {
					out.SetStatic(r, si, e.s.ValueLit(l))
				}
			}
		}
	}
	for _, ck := range e.costOrder {
		out.Cost[ck] = int64(bv.Value(e.costVecs[ck], e.value))
	}
	for _, link := range e.wedgeOrder {
		if e.value(e.wedgeVars[link]) {
			out.SetWaypoint(link, true)
		}
	}
	for _, r := range e.dstRow {
		out.DeriveDst(r)
	}
	dev := bitset.New(len(e.tb.slots))
	for tl, r := range e.tcRow {
		clear(dev)
		for _, si := range e.tb.tc[r].slots {
			switch e.tb.slots[si].Kind {
			case arc.SlotSource, arc.SlotInterDevice, arc.SlotDest:
				dev.Put(int(si), !e.value(e.tVar[tl][si]))
			}
		}
		out.DeriveTC(r, dev)
	}
}
