package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// encodeFixture is one network's per-destination sub-problems, ready to
// encode.
type encodeFixture struct {
	tb       *tables
	orig     *harc.State
	problems []*problem
	opts     Options
}

func newEncodeFixture(t *testing.T, h *harc.HARC, policies []policy.Policy) *encodeFixture {
	t.Helper()
	opts := DefaultOptions()
	problems, err := buildProblems(h, policies, opts)
	if err != nil || len(problems) == 0 {
		t.Fatalf("buildProblems: %d problems, err %v", len(problems), err)
	}
	return &encodeFixture{newTables(h), harc.StateOf(h), problems, opts}
}

// encodeAll encodes every sub-problem in w, each on a new solver.
func (f *encodeFixture) encodeAll(t *testing.T, w *worker) {
	for _, pr := range f.problems {
		enc := newEncoder(w, sat.New(), f.tb, f.orig, pr.tcs, pr.policies, pr.freeze, f.opts)
		if err := enc.encode(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func corpusFixture(t *testing.T) *encodeFixture {
	t.Helper()
	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	return newEncodeFixture(t, corpus[8].Harc(), corpus[8].Policies)
}

// TestEncodeAllocBudget is the allocation gate on the encoder. With a
// warm worker, encoding allocates the encoder's tables and the solver's
// arrays — per sub-problem, nothing per formula node, per variable, per
// policy or, now that the solver's lists are windows into two backings,
// per literal — so the count repeats to within an allocation and is
// pinned a few percent above it (156 and 156; with a policy's private
// variables and PC3's scratch allocated per policy 163 and 647; with storage of each
// encoder's own 179 and 724; with a Go slice per variable-table row and
// per-class positions grouped as [][]int 183 and 814; with a Go slice
// per list 555 and 6,095; the pointer-AST encoder made 314,267 for the
// corpus network). A cold worker, on its first encode, also allocates its
// arena, its CNF stream and its storage: in chunks that are written once,
// 0.41 and 4.35 MB per encode, pinned 4 % above (0.41 and 4.81 with
// PC1, PC3 and the class softs interned in the arena, 0.41 and 4.95 with
// storage of each encoder's own, 0.43 and 5.00 with the rows and
// groupings above; a stream that grew by half and was copied each time
// made it 0.59 and 5.62 MB).
// Raising a budget needs a reason in the commit that does it.
func TestEncodeAllocBudget(t *testing.T) {
	n := topology.Figure2a()
	for _, tc := range []struct {
		name     string
		fix      *encodeFixture
		budget   float64
		budgetMB float64
	}{
		{"figure2a", newEncodeFixture(t, harc.Build(n), figure2aPolicies(n)), 163, 0.43},
		{"corpus-dc08", corpusFixture(t), 162, 4.52},
	} {
		w := newWorker()
		tc.fix.encodeAll(t, w) // grow the scratch to its working size
		got := testing.AllocsPerRun(5, func() { tc.fix.encodeAll(t, w) })
		t.Logf("%s: %.0f allocs per encode (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per encode, budget %.0f", tc.name, got, tc.budget)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			tc.fix.encodeAll(t, newWorker())
		}
		runtime.ReadMemStats(&after)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
		t.Logf("%s: %.2f MB per cold encode (budget %.2f)", tc.name, mb, tc.budgetMB)
		if mb > tc.budgetMB {
			t.Errorf("%s: %.2f MB per cold encode, budget %.2f", tc.name, mb, tc.budgetMB)
		}
	}
}

// heapDelta returns the live-heap growth across build, whose result it
// keeps reachable until after the measurement: the least of three
// samples, each taken between two collections, with that sample's result.
// Whatever else the process allocates during a sample can only inflate it,
// so the sample it spares is the one that counts.
func heapDelta(build func() any) (int64, any) {
	best, kept := int64(math.MaxInt64), any(nil)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		k := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d < best {
			best, kept = d, k
		}
	}
	return best, kept
}

// TestApproxBytesTracksHeap holds the O(1) retained-memory estimate
// (what /statsz reports as retained bytes) to the measured heap: within
// 25 % for the staged repair states a solve cache retains from solving
// the fixture's sub-problems.
func TestApproxBytesTracksHeap(t *testing.T) {
	fix := corpusFixture(t)
	// The shared tables are built by the first encode that needs them and
	// belong to the repair, not to a retained state.
	fix.encodeAll(t, newWorker())
	measured, kept := heapDelta(func() any {
		opts := fix.opts
		opts.Cache = NewSolveCache("approx")
		w := newWorker()
		var pending atomic.Int64
		for _, p := range fix.problems {
			pr := &problem{label: p.label, tcs: p.tcs, policies: p.policies, freeze: p.freeze}
			solveProblem(context.Background(), w, fix.tb.h, fix.tb, fix.orig, pr, opts, 1, &pending)
		}
		var states []*harc.State
		for _, e := range opts.Cache.entries {
			if e.realized != nil {
				states = append(states, e.realized)
			}
		}
		return states
	})
	var approx int64
	for _, st := range kept.([]*harc.State) {
		approx += st.ApproxBytes()
	}
	t.Logf("%d retained states: approx %d B, measured %d B (%.2fx)", len(kept.([]*harc.State)), approx, measured, float64(approx)/float64(measured))
	if approx < measured*3/4 || approx > measured*5/4 {
		t.Errorf("ApproxBytes %d is not within 25%% of the measured %d", approx, measured)
	}
	runtime.KeepAlive(kept)
}

// TestEncodePoolSize pins what the pool interns. Under MinLines a dc-256
// quotient sub-problem's PC1 and PC3 policies and its class softs define
// every composite in place, so after the whole encoding the pool holds
// the hierarchy's shared nodes and nothing else: 304 for the first
// sub-problem (49,486 when PC1, PC3 and the softs were interned too).
func TestEncodePoolSize(t *testing.T) {
	qs, opts := dc256Quotients(t)
	w := newWorker()
	for i, q := range qs {
		enc := newEncoder(w, sat.New(), q.tb, q.orig, q.pr.tcs, q.pr.policies, q.pr.freeze, opts)
		enc.hierarchyConstraints()
		hier := w.b.Pool().Size()
		enc = newEncoder(w, sat.New(), q.tb, q.orig, q.pr.tcs, q.pr.policies, q.pr.freeze, opts)
		if err := enc.encode(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := w.b.Pool().Size()
		t.Logf("%s: %d nodes interned, %d by the hierarchy", q.pr.label, got, hier)
		if got != hier {
			t.Errorf("%s: %d nodes interned, the hierarchy's are %d", q.pr.label, got, hier)
		}
		if i == 0 && got != 304 {
			t.Errorf("%s: %d nodes interned, pinned 304", q.pr.label, got)
		}
	}
}
