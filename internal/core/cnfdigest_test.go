package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// cnfDigest encodes one sub-problem and hashes everything the solver is
// given: nVars ‖ clause stream (length-prefixed clauses in emission
// order, its chunks concatenated) ‖ soft count ‖ soft literals ‖
// weights, each a little-endian uint32.
func cnfDigest(t *testing.T, w *worker, tb *tables, orig *harc.State, pr *problem, opts Options) string {
	t.Helper()
	sc := w.b
	enc := newEncoder(w, sat.New(), tb, orig, pr.tcs, pr.policies, pr.freeze, opts)
	if err := enc.encode(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	word := func(v uint32) {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	word(uint32(sc.NumVars()))
	for _, chunk := range sc.Stream() {
		for _, l := range chunk {
			word(uint32(l))
		}
	}
	word(uint32(len(enc.softs)))
	for _, l := range enc.softs {
		word(uint32(l))
	}
	for _, w := range enc.weights {
		word(uint32(w))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestProblems encodes nothing itself: it calls visit with each of the
// 19 pinned sub-problems — Figure 2a under both granularities and both
// objectives, the bench's fattree-pc4 input, three corpus-batch networks
// and the first dc-256 sub-problem on its quotient — under the name the
// testdata files key them by.
func digestProblems(t *testing.T, visit func(name string, tb *tables, orig *harc.State, pr *problem, opts Options)) {
	t.Helper()
	all := func(name string, h *harc.HARC, policies []policy.Policy, opts Options) {
		t.Helper()
		problems, err := buildProblems(h, policies, opts)
		if err != nil {
			t.Fatal(err)
		}
		tb := newTables(h)
		orig := harc.StateOf(h)
		for _, pr := range problems {
			visit(name+"/"+pr.label, tb, orig, pr, opts)
		}
	}

	n := topology.Figure2a()
	h := harc.Build(n)
	for _, g := range []Granularity{PerDst, AllTCs} {
		for _, o := range []Objective{MinLines, MinDevices} {
			opts := DefaultOptions()
			opts.Granularity, opts.Objective = g, o
			all("fig2a/"+g.String()+"/"+o.String(), h, figure2aPolicies(n), opts)
		}
	}

	// The bench's fattree-pc4 input: the pc4-merged problem bit-blasts
	// primary-path costs through package bv.
	ft := pc4FatTree(t)
	all("fattree-pc4", ft.Harc(), ft.Policies, DefaultOptions())

	// Three networks of the bench's corpus-batch population.
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 8, 16} {
		all("corpus/"+corpus[i].Name, corpus[i].Harc(), corpus[i].Policies, DefaultOptions())
	}

	// One dc-256 sub-problem on its quotient.
	qs, qopts := dc256Quotients(t)
	visit("dc256-quotient/"+qs[0].pr.label, qs[0].tb, qs[0].orig, qs[0].pr, qopts)
}

// quotientProblem is a sub-problem on its quotient, with the quotient's
// tables and original state.
type quotientProblem struct {
	tb   *tables
	orig *harc.State
	pr   *problem
}

// dc256Quotients returns dc-256's (seed 7) per-destination sub-problems
// on their quotients, as tryCompressed builds them, and the options they
// are built under.
func dc256Quotients(tb testing.TB) ([]quotientProblem, Options) {
	tb.Helper()
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		tb.Fatal(err)
	}
	dh, opts := dc.Harc(), DefaultOptions()
	problems, err := buildProblems(dh, dc.Policies, opts)
	if err != nil {
		tb.Fatal(err)
	}
	dtb := newTables(dh)
	qs := make([]quotientProblem, len(problems))
	for i, pr := range problems {
		_, qh, qtcs, qpolicies, stage := buildQuotient(dtb, pr, opts)
		if stage != "" {
			tb.Fatalf("no quotient for %s: stage %q", pr.label, stage)
		}
		qpr := &problem{label: pr.label, tcs: qtcs, policies: qpolicies, freeze: true}
		qs[i] = quotientProblem{newTables(qh), harc.StateOf(qh), qpr}
	}
	return qs, opts
}

// pc4FatTree is the bench's fattree-pc4 network: k=4, four policies of
// every class, five links broken.
func pc4FatTree(tb testing.TB) *generate.Instance {
	tb.Helper()
	ft, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 4, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	if err := generate.BreakFatTree(ft, 5, 8); err != nil {
		tb.Fatal(err)
	}
	return ft
}

// checkDigests compares got against the digests pinned in testdata/file.
func checkDigests(t *testing.T, file string, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %.16s…, want %.16s…", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("digested %d sub-problems, testdata pins %d", len(got), len(want))
	}
}

// TestCNFDigest pins the encoder's output bit for bit. The digests in
// testdata/cnf_digests.json were recorded at the commit before the
// formula arena and sat.Solver.Load existed, by logging every NewVar and
// AddClause call of the pointer-AST encoder: variable numbering, sharing
// and clause order are a contract (the solve cache, bench/golden.json and
// the pinned serve trace all rest on the solver's trajectory), so a
// change to the constraint-building layer must reproduce them exactly. A
// change that means to alter the formula re-records them, and says so.
func TestCNFDigest(t *testing.T) {
	got := map[string]string{}
	w := newWorker()
	digestProblems(t, func(name string, tb *tables, orig *harc.State, pr *problem, opts Options) {
		got[name] = cnfDigest(t, w, tb, orig, pr, opts)
	})
	checkDigests(t, "cnf_digests.json", got)
}

// solveDigest encodes and solves one sub-problem on s, an empty solver,
// in w's storage, and hashes the search it took (searchDigest).
func solveDigest(t *testing.T, w *worker, s *sat.Solver, tb *tables, orig *harc.State, pr *problem, opts Options) string {
	t.Helper()
	enc := newEncoder(w, s, tb, orig, pr.tcs, pr.policies, pr.freeze, opts)
	if err := enc.encode(context.Background()); err != nil {
		t.Fatal(err)
	}
	nVars := w.b.NumVars()
	cost, status := enc.solve(context.Background())
	return searchDigest(s, nVars, cost, status)
}

// searchDigest hashes the search s took over a formula of nVars
// variables: status ‖ cost ‖ conflicts ‖ decisions ‖ propagations ‖
// restarts ‖ learned literals, each a little-endian uint64, then (when
// satisfiable) the model over those variables, one bit each.
func searchDigest(s *sat.Solver, nVars, cost int, status sat.Status) string {
	st := s.Snapshot()
	h := sha256.New()
	for _, v := range []int64{int64(status), int64(cost), st.Conflicts, st.Decisions, st.Propagations, st.Restarts, st.LearnedLits} {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	if status == sat.Sat {
		bits := make([]byte, (nVars+7)/8)
		for v := 0; v < nVars; v++ {
			if s.Value(sat.Var(v)) {
				bits[v/8] |= 1 << (v % 8)
			}
		}
		h.Write(bits)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveDigest pins the solver's trajectory, not just its input: for
// each TestCNFDigest sub-problem, the verdict, the optimum, the search
// counters and the model. The digests in testdata/solve_digests.json were
// recorded on the commit before literal-indexed values and the keyed VSIDS
// heap (6446423). A change that only makes the solver's steps cheaper
// must reproduce them exactly — every conflict, decision and propagation,
// and the same one of several equal-cost optima. Like the CNF digests,
// they are never re-recorded to make a speed change pass.
//
// The digests are solved three times over. First each sub-problem gets a
// new solver. Then one worker solves them all in sequence, forward and
// then reversed, as runProblems' workers do: after the first, every one
// runs on the solver the one before it used, reset, and every one in the
// encoder storage and OLL scratch the ones before it left — so a reset
// solver and reused storage have to reproduce a new one's search exactly,
// whatever they were used for before. Last, the worker solves them through
// solveProblem with a solve cache set, each on a spare that a first-leg
// solve drove: the outcome is stored, the solver stays with the worker,
// and right after the stored solve it must hold that search.
func TestSolveDigest(t *testing.T) {
	type digestCase struct {
		name string
		tb   *tables
		orig *harc.State
		pr   *problem
		opts Options
	}
	var cases []digestCase
	digestProblems(t, func(name string, tb *tables, orig *harc.State, pr *problem, opts Options) {
		cases = append(cases, digestCase{name, tb, orig, pr, opts})
	})

	w := newWorker()
	got := map[string]string{}
	driven := make([]*sat.Solver, len(cases))
	for i, c := range cases {
		driven[i] = sat.New()
		got[c.name] = solveDigest(t, w, driven[i], c.tb, c.orig, c.pr, c.opts)
	}
	checkDigests(t, "solve_digests.json", got)

	resets := 0
	for _, order := range []string{"forward", "reversed"} {
		got := map[string]string{}
		for _, c := range cases {
			if w.spare != nil {
				resets++
			}
			s := w.solver()
			got[c.name] = solveDigest(t, w, s, c.tb, c.orig, c.pr, c.opts)
			w.spare = s
		}
		t.Run(order, func(t *testing.T) { checkDigests(t, "solve_digests.json", got) })
		slices.Reverse(cases)
	}
	if want := 2*len(cases) - 1; resets != want {
		t.Errorf("%d of %d solves ran on a reset solver, want %d", resets, 2*len(cases), want)
	}

	t.Run("cached", func(t *testing.T) {
		got := map[string]string{}
		var pending atomic.Int64
		for i, c := range cases {
			opts := c.opts
			opts.Compress = CompressOff // the dc-256 case is a quotient already
			opts.Cache = NewSolveCache(c.name)
			pr := &problem{label: c.pr.label, tcs: c.pr.tcs, policies: c.pr.policies, freeze: c.pr.freeze}
			w.spare = driven[i]
			solveProblem(context.Background(), w, c.tb.h, c.tb, c.orig, pr, opts, 1, &pending)
			if w.spare != driven[i] || len(opts.Cache.entries) != 1 {
				t.Fatalf("%s: outcome %v not stored, or the worker lost its solver", c.name, pr.stat.Outcome)
			}
			for _, e := range opts.Cache.entries {
				got[c.name] = searchDigest(w.spare, w.b.NumVars(), e.stat.Violations, e.stat.Status)
			}
		}
		checkDigests(t, "solve_digests.json", got)
	})
}
