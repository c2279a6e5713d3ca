package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arc"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/bv"
	"repro/internal/smt/formula"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// The pooled reference: PC1, PC2, PC3 and the MinLines class-level soft
// built as formulas in the worker's pool — every composite interned,
// flattened and Tseitin-encoded by Builder.Lit — which the encoder
// defines in place instead, and isolation, which it keeps pooled because
// two policies can build the same conjunction. TestInPlaceMatchesPooled
// and FuzzEncode hold the two to the same CNF, word for word.

// referenceEncode is encode with the pooled PC1, PC2, PC3 and class
// softs, up to the load: the builder holds the CNF and e the softs.
func (e *encoder) referenceEncode() error {
	e.hierarchyConstraints()
	for _, p := range e.policies {
		switch p.Kind {
		case policy.AlwaysBlocked:
			e.referencePC1(p)
		case policy.AlwaysWaypoint:
			e.referencePC2(p)
		case policy.KReachable:
			e.referencePC3(p)
		case policy.Isolated:
			e.referenceIsolation(p)
		default:
			if err := e.policyConstraints(p); err != nil {
				return err
			}
		}
	}
	e.referenceClassSofts()
	e.constructSofts()
	return nil
}

func (e *encoder) referenceIsolation(p policy.Policy) {
	t1 := e.tVar[e.tl(p.TC)]
	t2 := e.tVar[e.tl(p.TC2)]
	for si := range e.tb.slots {
		if t1[si] != 0 && t2[si] != 0 {
			e.b.Assert(formula.Not(e.p.And(t1[si], t2[si])))
		}
	}
}

func (e *encoder) referencePC1(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]
	reach := bv.Fresh(e.p, t.nv)
	e.b.Assert(reach[0]) // SRC
	for k, si := range t.slots {
		e.b.AssertImplies(
			e.p.And(e.tVar[tl][si], reach[t.fromV[k]]),
			reach[t.toV[k]],
		)
	}
	e.b.Assert(formula.Not(reach[1])) // DST
}

func (e *encoder) referencePC2(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]
	nw := bv.Fresh(e.p, t.nv)
	e.b.Assert(nw[0]) // SRC
	for k, si := range t.slots {
		e.b.AssertImplies(
			e.p.And(e.tVar[tl][si], formula.Not(e.wedge(si)), nw[t.fromV[k]]),
			nw[t.toV[k]],
		)
	}
	e.b.Assert(formula.Not(nw[1])) // DST
}

func (e *encoder) referencePC3(p policy.Policy) {
	tl := e.tl(p.TC)
	t := e.tb.tc[e.tcRow[tl]]

	pe := make([][]formula.F, p.K)
	for j := range pe {
		pe[j] = bv.Fresh(e.p, len(t.slots))
	}
	var buf []formula.F
	peVars := func(row []formula.F, positions []int32) []formula.F {
		buf = buf[:0]
		for _, k := range positions {
			buf = append(buf, row[k])
		}
		return buf
	}

	for j := 0; j < p.K; j++ {
		for k, si := range t.slots {
			e.b.AssertImplies(pe[j][k], e.tVar[tl][si])
		}
		e.b.AssertOr(peVars(pe[j], t.byTail.at(0))...)
		e.b.AssertOr(peVars(pe[j], t.byHead.at(1))...)
		for vi := 0; vi < t.nv; vi++ {
			if vi == 0 { // SRC
				continue
			}
			outs := t.byTail.at(vi)
			if len(outs) == 0 {
				continue
			}
			inFs := peVars(pe[j], t.byHead.at(vi))
			for _, k := range outs {
				e.b.AssertImplies(pe[j][k], inFs...)
			}
		}
		for vi := 0; vi < t.nv; vi++ {
			if vi == 1 { // DST
				continue
			}
			ins := t.byHead.at(vi)
			if len(ins) == 0 {
				continue
			}
			outFs := peVars(pe[j], t.byTail.at(vi))
			for _, k := range ins {
				e.b.AssertImplies(pe[j][k], outFs...)
			}
			if len(outFs) > 1 {
				// Pairwise at-most-one over the interned operands' literals.
				lits := make([]sat.Lit, len(outFs))
				for i, f := range outFs {
					lits[i] = e.b.Lit(f)
				}
				e.b.AtMostOne(lits...)
			}
		}
	}
	used := make([]formula.F, p.K)
	for li := 0; li < t.links.n(); li++ {
		for j := 0; j < p.K; j++ {
			used[j] = e.p.Or(peVars(pe[j], t.links.at(li))...)
		}
		for a := 0; a < p.K; a++ {
			for b := a + 1; b < p.K; b++ {
				e.b.Assert(formula.Not(e.p.And(used[a], used[b])))
			}
		}
	}
}

func (e *encoder) referenceClassSofts() {
	for tl := range e.tcs {
		dl := e.tcDst[tl]
		tcState := e.st.TC[e.tcRow[tl]]
		dstState := e.st.Dst[e.dstRow[dl]]
		for _, si := range e.tb.tc[e.tcRow[tl]].slots {
			origTC := tcState.Has(int(si))
			dev := aclDevice(e.tb.slots[si])
			if e.tb.slots[si].Kind == arc.SlotSource {
				e.soft(dev, e.p.Iff(e.tVar[tl][si], constBool(origTC)))
				continue
			}
			origD := dstState.Has(int(si))
			if origD && !origTC {
				e.soft(dev, formula.Not(e.tVar[tl][si]))
			} else {
				e.soft(dev, e.p.Iff(e.tVar[tl][si], e.dVar[dl][si]))
			}
		}
	}
}

// cnfWords is everything an encoding gives the solver.
type cnfWords struct {
	nVars         int
	stream, softs []sat.Lit
	weights       []int
}

// encodeWords encodes pr on w, in place (encode) or by the pooled
// reference, and copies out what the solver is given.
func encodeWords(w *worker, tb *tables, orig *harc.State, pr *problem, opts Options, pooled bool) (cnfWords, error) {
	enc := newEncoder(w, sat.New(), tb, orig, pr.tcs, pr.policies, pr.freeze, opts)
	var err error
	if pooled {
		err = enc.referenceEncode()
	} else {
		err = enc.encode(context.Background())
	}
	return cnfWords{
		nVars:   w.b.NumVars(),
		stream:  slices.Concat(w.b.Stream()...),
		softs:   slices.Clone(enc.softs),
		weights: slices.Clone(enc.weights),
	}, err
}

// checkInPlace fails t unless pr's in-place encoding is the pooled
// reference's, word for word.
func checkInPlace(t testing.TB, w *worker, name string, tb *tables, orig *harc.State, pr *problem, opts Options) {
	t.Helper()
	got, err := encodeWords(w, tb, orig, pr, opts, false)
	want, refErr := encodeWords(w, tb, orig, pr, opts, true)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: in place: %v; pooled: %v", name, err, refErr)
	}
	if err != nil {
		return // both reject the problem (a PC4 path with no slot chain)
	}
	if got.nVars != want.nVars {
		t.Errorf("%s: %d variables in place, %d pooled", name, got.nVars, want.nVars)
	}
	if i := firstDiff(got.stream, want.stream); i >= 0 {
		t.Errorf("%s: streams (%d and %d words) differ at word %d", name, len(got.stream), len(want.stream), i)
	}
	if !slices.Equal(got.softs, want.softs) || !slices.Equal(got.weights, want.weights) {
		t.Errorf("%s: %d softs in place, %d pooled, or their literals or weights differ", name, len(got.softs), len(want.softs))
	}
}

// firstDiff returns the first index where a and b differ (the shorter
// one's length if one is a prefix of the other), or -1 if they are equal.
func firstDiff(a, b []sat.Lit) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// checkAllInPlace runs checkInPlace on every sub-problem buildProblems
// makes of h's policies under opts.
func checkAllInPlace(t testing.TB, w *worker, name string, h *harc.HARC, policies []policy.Policy, opts Options) {
	t.Helper()
	problems, err := buildProblems(h, policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, orig := newTables(h), harc.StateOf(h)
	for _, pr := range problems {
		checkInPlace(t, w, name+"/"+pr.label, tb, orig, pr, opts)
	}
}

// checkFixtureInPlace encodes policies as one sub-problem under both
// freezes and both objectives, whether or not they are violated.
func checkFixtureInPlace(t testing.TB, w *worker, name string, h *harc.HARC, policies []policy.Policy) {
	t.Helper()
	tb, orig := newTables(h), harc.StateOf(h)
	for _, freeze := range []bool{true, false} {
		for _, o := range []Objective{MinLines, MinDevices} {
			opts := DefaultOptions()
			opts.Objective = o
			pr := &problem{label: fmt.Sprintf("freeze=%v/%s", freeze, o), tcs: uniqueTCs(policies), policies: policies, freeze: freeze}
			checkInPlace(t, w, name+"/"+pr.label, tb, orig, pr, opts)
		}
	}
}

// TestInPlaceMatchesPooled holds the constraints defined in place to the
// pooled reference: nVars, the clause stream, the soft literals and the
// weights are identical on every dc-256 quotient sub-problem, every
// corpus-batch network, fattree-pc4 and Figure 2a (both granularities,
// both objectives; its B–C link carries a waypoint and A–B does not, so
// PC2 covers both), and on two fixtures encoded whether or not they are
// violated: the fat-tree's PC1, PC2 and PC3 policies with K = 3 (where
// the order path disjunctions are numbered in shows), and Figure 2a with
// two isolation policies over one class pair, whose conjunctions the
// pool must share.
func TestInPlaceMatchesPooled(t *testing.T) {
	w := newWorker()
	qs, qopts := dc256Quotients(t)
	for _, q := range qs {
		checkInPlace(t, w, "dc256-quotient/"+q.pr.label, q.tb, q.orig, q.pr, qopts)
	}

	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range corpus {
		checkAllInPlace(t, w, "corpus/"+inst.Name, inst.Harc(), inst.Policies, DefaultOptions())
	}

	ft := pc4FatTree(t)
	fh := ft.Harc()
	checkAllInPlace(t, w, "fattree-pc4", fh, ft.Policies, DefaultOptions())

	n := topology.Figure2a()
	h := harc.Build(n)
	for _, g := range []Granularity{PerDst, AllTCs} {
		for _, o := range []Objective{MinLines, MinDevices} {
			opts := DefaultOptions()
			opts.Granularity, opts.Objective = g, o
			checkAllInPlace(t, w, "fig2a/"+g.String()+"/"+o.String(), h, figure2aPolicies(n), opts)
		}
	}

	var k3 []policy.Policy
	for _, p := range ft.Policies {
		switch p.Kind {
		case policy.KReachable:
			p.K = 3
			k3 = append(k3, p)
		case policy.AlwaysBlocked, policy.AlwaysWaypoint:
			k3 = append(k3, p)
		}
	}
	checkFixtureInPlace(t, w, "fattree-k3", fh, k3)

	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	iso := policy.Policy{Kind: policy.Isolated, TC: topology.TrafficClass{Src: s, Dst: tt}, TC2: topology.TrafficClass{Src: r, Dst: u}}
	checkFixtureInPlace(t, w, "fig2a-isolated-twice", h, append(figure2aPolicies(n), iso, iso))
}

// FuzzEncode draws a small generated network — a data center or, with
// its primary-path policies, a fat-tree — and random policies over its
// subnets (every kind but primary-path, K from 1 to 3), and demands the
// in-place encoding equal the pooled reference on every sub-problem,
// under both granularities and both objectives.
func FuzzEncode(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var inst *generate.Instance
		var err error
		if r.Intn(4) == 0 {
			inst, err = generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 1, PC2: 1, PC3: 1, PC4: 1 + r.Intn(2), Seed: seed})
		} else {
			inst, err = generate.DataCenter(generate.DCOptions{
				Name: "fuzz", Routers: 2 + r.Intn(5), Subnets: 2 + r.Intn(5),
				BlockedFrac: r.Float64(), Violations: r.Intn(3), Seed: seed,
			})
		}
		if err != nil {
			t.Skip(err)
		}
		n, h := inst.Network, inst.Harc()
		subnets := n.Subnets
		class := func() topology.TrafficClass {
			for {
				src, dst := subnets[r.Intn(len(subnets))], subnets[r.Intn(len(subnets))]
				if src != dst {
					return topology.TrafficClass{Src: src, Dst: dst}
				}
			}
		}
		var policies []policy.Policy
		for _, p := range inst.Policies {
			if r.Intn(2) == 0 || p.Kind == policy.PrimaryPath {
				policies = append(policies, p)
			}
		}
		kinds := []policy.Kind{policy.AlwaysBlocked, policy.AlwaysWaypoint, policy.KReachable, policy.Isolated}
		for i := r.Intn(6); i > 0; i-- {
			p := policy.Policy{Kind: kinds[r.Intn(len(kinds))], TC: class()}
			switch p.Kind {
			case policy.KReachable:
				p.K = 1 + r.Intn(3)
			case policy.Isolated:
				p.TC2 = class()
			}
			policies = append(policies, p)
		}
		if len(policies) == 0 {
			return
		}
		w := newWorker()
		for _, g := range []Granularity{PerDst, AllTCs} {
			for _, o := range []Objective{MinLines, MinDevices} {
				opts := DefaultOptions()
				opts.Granularity, opts.Objective = g, o
				checkAllInPlace(t, w, fmt.Sprintf("seed %d/%s/%s", seed, g, o), h, policies, opts)
			}
		}
	})
}
