package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// takes records, through the solverTaken hook, every reset solver a worker
// hands to an attempt, until the test ends.
type takes struct {
	mu    sync.Mutex
	reset map[*sat.Solver]int // solver → times it was handed out reset
}

func recordTakes(t *testing.T) *takes {
	tk := &takes{reset: map[*sat.Solver]int{}}
	solverTaken = func(s *sat.Solver, reset bool) {
		tk.mu.Lock()
		defer tk.mu.Unlock()
		if reset {
			tk.reset[s]++
		}
	}
	t.Cleanup(func() { solverTaken = nil })
	return tk
}

// resets returns how many attempts ran on a reset solver since the last
// call, and forgets them.
func (tk *takes) resets() int {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	n := 0
	for _, k := range tk.reset {
		n += k
	}
	clear(tk.reset)
	return n
}

// pc4MixFatTree is a fat-tree whose per-destination repair has both kinds
// of sub-problem under CompressOn: five compressed ones, and a pc4-merged
// one that is never compressed. At Parallelism 1 the pc4-merged problem
// runs second, after a compressed attempt has left its worker a spare
// solver.
func pc4MixFatTree(t *testing.T) *generate.Instance {
	t.Helper()
	ft, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 4, PC2: 2, PC3: 4, PC4: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft, 5, 8); err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestWorkerKeepsItsSolver pins the ownership rule of worker solvers: a
// worker's solver never leaves it, so in a repair every attempt after a
// worker's first runs on that worker's solver, reset — solve cache set or
// not, outcomes stored or not. Repairs run at Parallelism 1 and 2 through
// two caches: one without an epoch, so compressed outcomes are not stored
// (with compression on, the pc4-merged sub-problem is; with it off, every
// sub-problem is), and one with an epoch, which stores compressed outcomes
// too. In each, at most one new solver per worker is made, and every
// other attempt gets one of those back, reset.
func TestWorkerKeepsItsSolver(t *testing.T) {
	ft := pc4MixFatTree(t)
	h := ft.Harc()
	var (
		mu    sync.Mutex
		made  map[*sat.Solver]bool
		takes int
	)
	solverTaken = func(s *sat.Solver, reset bool) {
		mu.Lock()
		defer mu.Unlock()
		takes++
		if reset != made[s] {
			t.Errorf("a worker handed out solver %p with reset %v, but this repair made it: %v", s, reset, made[s])
		}
		made[s] = true
	}
	t.Cleanup(func() { solverTaken = nil })

	for _, par := range []int{1, 2} {
		noEpoch, epoch := NewSolveCache(""), NewSolveCache(fmt.Sprintf("ft-mix/%d", par))
		for _, run := range []struct {
			cache *SolveCache
			cmp   CompressMode
		}{{noEpoch, CompressOn}, {noEpoch, CompressOff}, {epoch, CompressOn}} {
			made, takes = map[*sat.Solver]bool{}, 0
			before := run.cache.Stats().Entries
			opts := DefaultOptions()
			opts.Parallelism, opts.Compress, opts.Cache = par, run.cmp, run.cache
			res, err := Repair(h, ft.Policies, opts)
			if err != nil || !res.Solved {
				t.Fatalf("parallelism %d, compress %v: solved %v, err %v", par, run.cmp, res != nil && res.Solved, err)
			}
			if run.cmp == CompressOn && (res.Compressed == 0 || res.Compressed == len(res.Stats)) {
				t.Fatalf("parallelism %d: %d of %d sub-problems compressed, want some of each kind", par, res.Compressed, len(res.Stats))
			}
			if run.cache.Stats().Entries == before {
				t.Fatalf("parallelism %d, compress %v: the repair stored no outcome", par, run.cmp)
			}
			if len(made) == 0 || len(made) > par || takes <= len(made) {
				t.Errorf("parallelism %d, compress %v: %d attempts on %d solvers, want at most one new solver per worker and some reset ones",
					par, run.cmp, takes, len(made))
			}
		}
	}
}

// TestRecycledShare measures how much of each benchmark workload the
// recycling reaches — the share of sub-problems solved on a reset solver,
// at the two workers the benchmark host runs — and pins its shape:
// dc256-oneshot's eight compressed sub-problems on two workers leave six
// on reset solvers (seven if one worker took them all), and as many when
// a session's solve cache stores all eight, since no entry keeps a
// solver; fattree-pc4 has a third at most, and serve-mix's sub-problems,
// all stored, run on reset solvers after each worker's first (a Figure 2a
// repair has one sub-problem, so that is none of them).
func TestRecycledShare(t *testing.T) {
	tk := recordTakes(t)
	share := func(name string, h *harc.HARC, ps []policy.Policy, opts Options) (int, int) {
		t.Helper()
		opts.Parallelism = 2
		res, err := Repair(h, ps, opts)
		if err != nil || !res.Solved {
			t.Fatalf("%s: solved %v, err %v", name, res != nil && res.Solved, err)
		}
		return tk.resets(), len(res.Stats)
	}
	report := func(name string, reset, total int) {
		t.Logf("%s: %d of %d sub-problems on a reset solver", name, reset, total)
	}

	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	reset, total := share("dc256-oneshot", dc.Harc(), dc.Policies, DefaultOptions())
	report("dc256-oneshot", reset, total)
	if total != 8 || reset < 6 || reset > 7 {
		t.Errorf("dc256-oneshot: %d of %d on a reset solver, want 6 or 7 of 8", reset, total)
	}
	opts := DefaultOptions()
	opts.Cache = NewSolveCache("dc-256/7")
	reset, total = share("dc256-session", dc.Harc(), dc.Policies, opts)
	report("dc256-session", reset, total)
	if st := opts.Cache.Stats(); total != 8 || reset < 6 || reset > 7 || st.Entries != 8 {
		t.Errorf("dc256-session: %d of %d on a reset solver, %d entries; want 6 or 7 of 8, and 8 entries",
			reset, total, st.Entries)
	}

	corpus, err := generate.Corpus(generate.CorpusOptions{Networks: 24, SubnetScale: 1.0, Seed: 20170801})
	if err != nil {
		t.Fatal(err)
	}
	reset, total = 0, 0
	for _, inst := range corpus {
		r, n := share(inst.Name, inst.Harc(), inst.Policies, DefaultOptions())
		reset, total = reset+r, total+n
	}
	report("corpus-batch", reset, total)

	ft := pc4FatTree(t)
	reset, total = share("fattree-pc4", ft.Harc(), ft.Policies, DefaultOptions())
	report("fattree-pc4", reset, total)
	if 3*reset > total {
		t.Errorf("fattree-pc4: %d of %d on a reset solver, want a third at most", reset, total)
	}

	// serve-mix: a session's repairs of Figure 2a variants, cold.
	n := topology.Figure2a()
	opts = DefaultOptions()
	opts.Cache = NewSolveCache("serve-mix")
	reset, total = share("serve-mix", harc.Build(n), figure2aPolicies(n), opts)
	report("serve-mix", reset, total)
	if st := opts.Cache.Stats(); reset < total-2 || st.Entries != total { // two workers
		t.Errorf("serve-mix: %d of %d on a reset solver, %d entries; want all but each worker's first, every outcome stored",
			reset, total, st.Entries)
	}
}

// TestRepairAllocBudget is the allocation gate on a compressed repair, in
// bytes: the determinism fixture with compression forced on, at
// Parallelism 1, so one worker solves all of its quotient sub-problems in
// turn. With one solver per worker, reset between sub-problems and
// regrown only for a sub-problem it cannot hold, a chunked CNF stream,
// the OLL scratch, soft lists and variable-table rows from the worker,
// the model read from the builder's table in place and per-class
// positions as int32 CSR, a repair measures 1.61 MB; with each
// sub-problem allocating its own OLL storage, lists, rows and model
// table, and [][]int groupings, it was 2.04 MB; with a reset solver that
// regrew for any larger sub-problem, a stream copied as it grew and an
// allocation per soft it was 2.81 MB, and when every sub-problem
// allocated a new solver 4.40 MB. The budget is 10 % above the first, so
// losing any of that fails it. Raising it needs a reason in the commit
// that does it.
func TestRepairAllocBudget(t *testing.T) {
	const budgetMB = 1.77
	h, ps := determinismFixture(t)
	opts := DefaultOptions()
	opts.Compress = CompressOn
	opts.Parallelism = 1
	repair := func() {
		res, err := Repair(h, ps, opts)
		if err != nil || !res.Solved || res.Compressed != len(res.Stats) {
			t.Fatalf("solved %v, %d of %d compressed, err %v", res != nil && res.Solved, res.Compressed, len(res.Stats), err)
		}
	}
	repair() // the shared tables, built on first use
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		repair()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1e6
	t.Logf("%.2f MB per compressed repair (budget %.2f)", got, budgetMB)
	if got > budgetMB {
		t.Errorf("%.2f MB per compressed repair, budget %.2f", got, budgetMB)
	}
}

// TestRecycledSolverKeepsCapacity pins the capacity rule of a reset solver
// (sat's fits): it regrows an array only for a load that does not fit
// with a sixteenth to spare. A repair's sub-problems differ by a few
// percent, and before the rule a worker's reset solver regrew every
// per-variable array for one that was 1 % larger than the one before.
//
// First, solvers that have each held a load twice (the second time reset,
// so even the arrays a new solver sizes exactly have had their one
// regrowth) load, reset, a stream 3 % larger: none allocates. Then a
// dc-256 repair at Parallelism 2 allocates per-variable arrays once per
// worker — its eight sub-problems of 78–82 k variables did four times.
// A -race build allocates on its own account, so there only the second
// check holds.
func TestRecycledSolverKeepsCapacity(t *testing.T) {
	const nVars = 20000
	small, large := dcShaped(nVars, 29), dcShaped(nVars+nVars*3/100, 29)
	solvers := make([]*sat.Solver, 4)
	for i := range solvers {
		s := sat.New()
		for j := 0; j < 2; j++ {
			s.Reset()
			s.Load(nVars, small)
		}
		s.Reset()
		solvers[i] = s
	}
	next := 0
	if allocs := testing.AllocsPerRun(len(solvers)-1, func() {
		solvers[next].Load(nVars+nVars*3/100, large)
		next++
	}); allocs != 0 && !raceBuild {
		t.Errorf("a reset solver allocated %.1f times loading a stream 3%% larger than its last, want 0", allocs)
	}

	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	var reserved atomic.Int64
	sat.Reserved = func(int) { reserved.Add(1) }
	t.Cleanup(func() { sat.Reserved = nil })
	opts := DefaultOptions()
	opts.Parallelism = 2
	res, err := Repair(dc.Harc(), dc.Policies, opts)
	if err != nil || !res.Solved {
		t.Fatalf("dc-256: solved %v, err %v", res != nil && res.Solved, err)
	}
	if n := reserved.Load(); n != int64(opts.Parallelism) {
		t.Errorf("dc-256 at Parallelism %d: per-variable arrays allocated %d times over %d sub-problems, want once per worker",
			opts.Parallelism, n, len(res.Stats))
	}
}

// dcShaped returns a Load stream over nVars variables
// with an encoder's clause mix: five clauses per variable, 85 % binary,
// the rest of width 3 or 4, over distinct variables.
func dcShaped(nVars int, seed int64) []sat.Lit {
	rng := rand.New(rand.NewSource(seed))
	var stream []sat.Lit
	lit := func() sat.Lit { return sat.MkLit(sat.Var(rng.Intn(nVars)), rng.Intn(2) == 0) }
	for i := 0; i < 5*nVars; i++ {
		width := 2
		if rng.Intn(100) >= 85 {
			width = 3 + rng.Intn(2)
		}
		c := make([]sat.Lit, 0, width)
		for len(c) < width {
			l := lit()
			dup := false
			for _, k := range c {
				dup = dup || k.Var() == l.Var()
			}
			if !dup {
				c = append(c, l)
			}
		}
		stream = sat.AppendClause(stream, c...)
	}
	return stream
}

// storageIDs identifies the storage a worker gives its attempts — every
// array and map of its encStorage, the OLL scratch's included, and the
// builder's variable table the encoders read their models from — by
// address and capacity: equal IDs are the same, unregrown, storage.
func storageIDs(w *worker) map[string][2]uintptr {
	ids := map[string][2]uintptr{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
			case reflect.Slice:
				ids[name] = [2]uintptr{f.Pointer(), uintptr(f.Cap())}
			default:
				ids[name] = [2]uintptr{f.Pointer()}
			}
		}
	}
	walk("", reflect.ValueOf(&w.store).Elem())
	vt := w.b.VarTable()
	ids["model table"] = [2]uintptr{uintptr(unsafe.Pointer(unsafe.SliceData(vt))), uintptr(cap(vt))}
	return ids
}

// sameStorage solves problems in turn on one worker and checks that the
// worker allocates its storage for the first and that every later one
// works in exactly those arrays.
func sameStorage(t *testing.T, problems []*problem, solve func(w *worker, pr *problem)) {
	t.Helper()
	w := newWorker()
	var first map[string][2]uintptr
	for i, pr := range problems {
		solve(w, pr)
		ids := storageIDs(w)
		if i == 0 {
			first = ids
			for name, id := range ids {
				if id[0] == 0 {
					t.Fatalf("%s: %s was never allocated", pr.label, name)
				}
			}
			continue
		}
		for name, id := range ids {
			if id != first[name] {
				t.Errorf("%s (sub-problem %d of %d): %s was allocated again", pr.label, i+1, len(problems), name)
			}
		}
	}
}

// TestWorkerStorageReused pins the storage rule of worker attempts: one
// worker solving sub-problems in turn, as Parallelism 1 does, allocates
// its OLL scratch, soft and weight lists, variable-table rows and model
// table for the first, and every later sub-problem works in exactly those
// arrays — dc-256's eight compressed sub-problems, and a corpus network's
// uncompressed ones with a solve cache set, whose entries take neither an
// attempt's solver nor its storage.
func TestWorkerStorageReused(t *testing.T) {
	dc, err := generate.Preset("dc-256", 7)
	if err != nil {
		t.Fatal(err)
	}
	h := dc.Harc()
	opts := DefaultOptions()
	opts.Parallelism = 1
	problems, err := buildProblems(h, dc.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	tb, orig := newTables(h), harc.StateOf(h)
	var pending atomic.Int64
	sameStorage(t, scheduleOrder(problems), func(w *worker, pr *problem) {
		solveProblem(context.Background(), w, tb, orig, pr, opts, 1, &pending)
		if !pr.stat.Compressed || pr.stat.Outcome != OutcomeSolved {
			t.Fatalf("%s: outcome %v, compressed %v, want a solved compressed sub-problem", pr.label, pr.stat.Outcome, pr.stat.Compressed)
		}
	})

	fix := corpusFixture(t)
	cached := fix.opts
	cached.Compress, cached.Cache = CompressOff, NewSolveCache("storage")
	sameStorage(t, scheduleOrder(fix.problems), func(w *worker, pr *problem) {
		solveProblem(context.Background(), w, fix.tb, fix.orig, pr, cached, 1, &pending)
		if pr.stat.Outcome != OutcomeSolved || w.spare == nil {
			t.Fatalf("%s: outcome %v, spare left %v, want a solved sub-problem whose solver stays with the worker", pr.label, pr.stat.Outcome, w.spare != nil)
		}
	})
}

// TestForkLeavesEpochBoundEntries pins what a derived session's cache
// carries: Fork leaves behind the entries whose fingerprint folded in the
// parent's epoch (the compressed outcomes, which no other epoch can hit)
// and keeps the rest, which the derived session replays byte-identically.
func TestForkLeavesEpochBoundEntries(t *testing.T) {
	ft := pc4MixFatTree(t)
	h := ft.Harc()
	opts := DefaultOptions()
	opts.Compress, opts.Cache = CompressOn, NewSolveCache("ft-mix")
	res, err := Repair(h, ft.Policies, opts)
	if err != nil || !res.Solved {
		t.Fatalf("solved %v, err %v", res != nil && res.Solved, err)
	}
	parent := opts.Cache.Stats().Entries
	if res.Compressed == 0 || parent <= res.Compressed {
		t.Fatalf("%d entries, %d compressed: want entries of both kinds", parent, res.Compressed)
	}
	fork := opts.Cache.Fork("ft-mix/derived")
	kept := fork.Stats().Entries
	if kept != parent-res.Compressed {
		t.Fatalf("fork keeps %d of %d entries, want the %d not bound to the epoch", kept, parent, parent-res.Compressed)
	}
	opts.Cache = fork
	replay, err := Repair(h, ft.Policies, opts)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Reused != kept {
		t.Errorf("derived session replayed %d sub-problems, want the %d kept entries", replay.Reused, kept)
	}
	if !project(replay).equal(project(res)) {
		t.Error("derived session's repair differs from the parent's")
	}
}
