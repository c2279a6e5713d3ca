package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arc"
	"repro/internal/bitset"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/formula"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// Granularity selects the MaxSMT decomposition of §5.3.
type Granularity int

// Decomposition granularities.
const (
	// AllTCs formulates a single MaxSMT problem over every traffic class
	// (maxsmt-all-tcs).
	AllTCs Granularity = iota
	// PerDst formulates one MaxSMT problem per destination with at least
	// one violated policy, solvable in parallel (maxsmt-per-dst). PC4
	// policies are merged into a single problem because link costs cannot
	// be customized per destination.
	PerDst
)

func (g Granularity) String() string {
	if g == PerDst {
		return "maxsmt-per-dst"
	}
	return "maxsmt-all-tcs"
}

// Objective selects the minimality dimension (§5.2).
type Objective int

// Minimality objectives.
const (
	// MinLines minimizes the number of configuration lines changed
	// (Table 2, the paper's primary objective).
	MinLines Objective = iota
	// MinDevices minimizes the number of devices whose configuration
	// changes (the alternative objective sketched in §5.2).
	MinDevices
)

func (o Objective) String() string {
	if o == MinDevices {
		return "min-devices"
	}
	return "min-lines"
}

// Outcome classifies one sub-problem's final disposition.
type Outcome int

// Sub-problem outcomes.
const (
	// OutcomeSolved: the MaxSMT solve found an optimal repair.
	OutcomeSolved Outcome = iota
	// OutcomeDegraded: the MaxSMT solve was exhausted, but the greedy
	// baseline produced a repair for this sub-problem's policies that
	// verified after construct realization.
	OutcomeDegraded
	// OutcomeFailed: no usable repair for this sub-problem
	// (unsatisfiable, cancelled, or every attempt and fallback failed).
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	}
	return "solved"
}

// SolveError is a typed per-sub-problem failure: a recovered solver
// panic, an encoding error, or a transient exhaustion, tagged with the
// sub-problem and attempt it occurred on.
type SolveError struct {
	Label   string // sub-problem label (destination name, "pc4-merged", "all-tcs")
	Phase   string // "encode" or "solve"
	Attempt int    // 1-based attempt number
	Panic   any    // recovered panic value when the failure was a panic
	Err     error  // underlying error otherwise
}

func (e *SolveError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("core: problem %s attempt %d: panic during %s: %v", e.Label, e.Attempt, e.Phase, e.Panic)
	}
	return fmt.Sprintf("core: problem %s attempt %d: %s: %v", e.Label, e.Attempt, e.Phase, e.Err)
}

func (e *SolveError) Unwrap() error { return e.Err }

// Options configures the repair engine.
type Options struct {
	Granularity Granularity
	Algorithm   maxsat.Algorithm
	Objective   Objective
	// Parallelism bounds concurrent per-destination solves. Zero (the
	// default) means runtime.GOMAXPROCS(0) — one worker per available
	// core, matching cprd's -workers convention; negative values are
	// treated as 1 (sequential). Results are byte-identical at every
	// setting: sub-problems are scheduled largest-first for wall-clock,
	// but their repairs are merged in deterministic problem order.
	Parallelism int
	// ConflictBudget bounds each SAT call (0 = unlimited); exceeding it
	// yields an Unknown problem status, CPR's analogue of the paper's
	// 8-hour limit. Per-destination retries escalate the budget; the
	// all-tcs problem runs once at exactly this budget.
	ConflictBudget int64
	// Compress selects Bonsai-style symmetry compression for eligible
	// per-destination sub-problems: repair a quotient of role-equivalent
	// routers, concretize the patch onto every class member, and accept
	// it only after it re-verifies on the uncompressed state (falling
	// back to the uncompressed solve otherwise).
	Compress CompressMode
	// CompressRedundancy overrides the representative members kept per
	// equivalence class (0 = derive from the problem: max(2, largest
	// PC3 K)). Values at or above the largest class size make the
	// quotient lossless. No product path sets it: it is kept, as the one
	// option without a non-test setter, because the compression oracle
	// and two core tests force a lossless quotient with it to hold a
	// compressed repair's cost to the uncompressed optimum.
	CompressRedundancy int
	// Cache, when set, memoizes terminal sub-problem solves across Repair
	// calls keyed by the sub-problem's full encoding fingerprint; an
	// entry keeps only the answer, never the solver. Hits replay results
	// byte-identical to a fresh solve (see SolveCache). Sessions
	// (cpr.Session, cprd) inject their per-session cache here.
	Cache *SolveCache
}

// maxAttempts bounds the solve attempts of one per-destination
// sub-problem; budgetEscalation multiplies the conflict budget on each
// retry, so a sub-problem that merely needed more search gets it before
// the fallback fires.
const (
	maxAttempts      = 3
	budgetEscalation = 4
)

// Workers resolves Options.Parallelism to a worker count: zero means
// one worker per available core, negative means sequential. Callers
// running their own verification fan-out use it to match the repair's
// parallelism.
func (o Options) Workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation reproduction.
func DefaultOptions() Options {
	return Options{
		Granularity: PerDst,
		Algorithm:   maxsat.OLL,
		Parallelism: 0, // all available cores
	}
}

// ProblemStat records one MaxSMT sub-problem's outcome.
type ProblemStat struct {
	Label      string // destination name, "pc4-merged", or "all-tcs"
	TCs        int
	Policies   int
	Vars       int
	Softs      int
	Violations int // violated softs = modeled configuration changes
	Status     sat.Status
	// Outcome is the sub-problem's disposition: solved, degraded (greedy
	// fallback), or failed.
	Outcome Outcome
	// Attempts is the number of solve attempts made (0 when the
	// sub-problem was cancelled before starting).
	Attempts int
	// Fallback names the degradation provenance ("greedy") when Outcome
	// is OutcomeDegraded.
	Fallback string
	// Err describes the terminal solver failure, when there was one. A
	// degraded sub-problem keeps the error that forced the fallback.
	Err string
	// Conflicts is the SAT solver's conflict count for this sub-problem
	// (summed across attempts).
	Conflicts int64
	// Solver holds the full solver counter snapshot for this sub-problem
	// (summed across attempts); Solver.Conflicts == Conflicts.
	Solver   sat.Stats
	Duration time.Duration
	// Compressed marks a sub-problem solved on a symmetry-compressed
	// quotient network whose concretized patch re-verified on the
	// uncompressed state. Vars/Softs then describe the quotient problem.
	Compressed bool
	// DeviceClasses and QuotientDevices describe the quotient when
	// compression was attempted: role-equivalence class count and
	// quotient device count; CompressRatio is concrete devices per
	// quotient device.
	DeviceClasses   int
	QuotientDevices int
	CompressRatio   float64
	// CompressFallback names the stage at which an attempted compression
	// was abandoned for the uncompressed path ("quotient", "remap",
	// "incompressible", "encode", "solve", "trivial", "concretize",
	// "reverify", or "panic"; empty when compression succeeded or was not
	// attempted).
	CompressFallback string
	// Per-stage wall-clock breakdown in nanoseconds, summed across
	// attempts. EncodeNs and SolveNs cover every solve path; HarcBuildNs
	// (quotient HARC construction), ConcretizeNs (patch fan-out) and
	// ReverifyNs (the concrete acceptance check) are populated only when
	// compression was attempted.
	HarcBuildNs  int64
	EncodeNs     int64
	SolveNs      int64
	ConcretizeNs int64
	ReverifyNs   int64
	// Reused marks a sub-problem replayed from the session solve cache
	// instead of solved fresh; all other counters (Vars, Conflicts,
	// Solver, ...) are the original solve's, which a fresh solve would
	// reproduce exactly. Duration is the replay's own wall-clock.
	Reused bool
}

// Result is the outcome of a Repair call.
type Result struct {
	// State is the repaired HARC state. It reflects every solved and
	// degraded sub-problem even when some failed.
	State *harc.State
	// Changes is the total number of violated soft constraints across
	// sub-problems: the modeled count of configuration changes. Degraded
	// sub-problems contribute the greedy baseline's change count.
	Changes int
	// Solved reports that every sub-problem found an optimal repair.
	Solved bool
	// Degraded and Failed count sub-problems by outcome; Solved is false
	// whenever either is nonzero.
	Degraded int
	Failed   int
	// Repaired lists the policies covered by solved or degraded
	// sub-problems: the subset of the specification guaranteed to hold on
	// State. Callers verifying partial results check exactly these.
	Repaired []policy.Policy
	// Conflicts is the total SAT conflict count across sub-problems.
	Conflicts int64
	// Solver aggregates the solver counters (restarts, learned literals,
	// DB reductions, arena GCs, binary propagations, ...) across
	// sub-problems.
	Solver sat.Stats
	Stats  []ProblemStat
	// Compressed counts sub-problems solved via symmetry compression;
	// CompressFallbacks counts attempted compressions that fell back to
	// the uncompressed path.
	Compressed        int
	CompressFallbacks int
	// Reused counts sub-problems replayed from the session solve cache.
	Reused int
	// Duration is the wall-clock time of the Repair call; Sequential sums
	// the individual sub-problem durations (the paper's serial baseline).
	Duration   time.Duration
	Sequential time.Duration
	// Orig is the pre-repair state the repair was computed against,
	// exposed (read-only) so callers translating State into configuration
	// patches need not recompute it. It is never nil: RepairCtx sets it,
	// and a session's memoized result keeps it.
	Orig *harc.State
	// Touched is the set of traffic-class keys whose state the repair may
	// have altered: solved classes, every class of a solved destination,
	// and all classes when the shared aETG changed. Policies on classes
	// outside Touched were verified satisfied before the repair and their
	// state is bit-identical to Orig's (waypoint additions only ever
	// strengthen PC2), so VerifyRepairIncremental may skip them.
	Touched map[string]bool
}

// Usable reports that at least one sub-problem produced a verified
// repair (solved or degraded) — the partial-result analogue of Solved.
func (r *Result) Usable() bool { return len(r.Repaired) > 0 }

// problem is one MaxSMT sub-problem of the decomposition.
type problem struct {
	label    string
	tcs      []topology.TrafficClass
	policies []policy.Policy
	freeze   bool
	// realized is the sub-problem's repair, staged by the worker for the
	// serial merge in a copy-on-write clone of the original state (so it
	// owns only the problem's rows): the model extraction of a solve, the
	// concretized quotient repair of a compressed one (concretizePatch),
	// the greedy fallback of a degraded one (realizeGreedy), or any of
	// those replayed from the solve cache. realizedChanges is the change
	// count of a degraded or compressed repair.
	realized        *harc.State
	realizedChanges int
	stat            ProblemStat
}

// dsts returns the problem's unique destination subnets.
func (pr *problem) dsts() []*topology.Subnet {
	seen := map[string]bool{}
	var out []*topology.Subnet
	for _, tc := range pr.tcs {
		if !seen[tc.Dst.Name] {
			seen[tc.Dst.Name] = true
			out = append(out, tc.Dst)
		}
	}
	return out
}

func uniqueTCs(ps []policy.Policy) []topology.TrafficClass {
	seen := map[string]bool{}
	var out []topology.TrafficClass
	add := func(tc topology.TrafficClass) {
		if tc.Src != nil && tc.Dst != nil && !seen[tc.Key()] {
			seen[tc.Key()] = true
			out = append(out, tc)
		}
	}
	for _, p := range ps {
		add(p.TC)
		if p.Kind == policy.Isolated {
			add(p.TC2)
		}
	}
	return out
}

// Repair computes a minimal repair of the network's HARC so that every
// policy holds. It returns an error for malformed inputs; an
// unsatisfiable specification yields Solved == false with per-problem
// statuses.
func Repair(h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	return RepairCtx(context.Background(), h, policies, opts)
}

// RepairCtx is Repair under a context. Cancelling ctx interrupts every
// in-flight SAT solve (the CDCL search loop polls an interruption flag),
// and RepairCtx returns the partial Result — completed sub-problems keep
// their solved statuses, pending ones are marked failed — alongside
// ctx's error.
func RepairCtx(ctx context.Context, h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	start := time.Now()
	orig := harc.StateOf(h)
	out := orig.Clone()
	res := &Result{State: out, Solved: true, Orig: orig}

	problems, err := buildProblems(h, policies, opts)
	if err != nil {
		return nil, err
	}
	for _, pr := range problems {
		for _, tc := range pr.tcs {
			if h.TCRow(tc) < 0 {
				return nil, fmt.Errorf("core: traffic class %s is outside the HARC", tc)
			}
		}
	}
	// The tables are shared by every sub-problem encoder, including across
	// parallel workers.
	tb := newTables(h)

	runProblems(ctx, h, tb, orig, problems, opts)

	// Serial merge: copy each usable sub-problem's staged rows into the
	// shared repaired state.
	solvedDsts := map[string]bool{}
	solvedTCs := map[string]bool{}
	for _, pr := range problems {
		res.Sequential += pr.stat.Duration
		res.Conflicts += pr.stat.Conflicts
		res.Solver.Accumulate(pr.stat.Solver)
		if pr.stat.CompressFallback != "" {
			res.CompressFallbacks++
		}
		if pr.stat.Reused {
			res.Reused++
		}
		switch pr.stat.Outcome {
		case OutcomeSolved:
			res.Changes += pr.stat.Violations
			if pr.stat.Compressed {
				res.Compressed++
			}
		case OutcomeDegraded:
			res.Changes += pr.realizedChanges
			res.Degraded++
			res.Solved = false
		case OutcomeFailed:
			res.Failed++
			res.Solved = false
			res.Stats = append(res.Stats, pr.stat)
			continue
		}
		mergeRows(orig, out, pr.realized, pr)
		res.Stats = append(res.Stats, pr.stat)
		for _, d := range pr.dsts() {
			solvedDsts[d.Name] = true
		}
		for _, tc := range pr.tcs {
			solvedTCs[tc.Key()] = true
		}
		res.Repaired = append(res.Repaired, pr.policies...)
	}
	sort.Slice(res.Stats, func(i, j int) bool { return res.Stats[i].Label < res.Stats[j].Label })

	// Policies outside every sub-problem were already satisfied (their
	// destination group had no violations) and per-destination repairs
	// leave their state untouched, so they remain covered by the result.
	if len(res.Repaired) > 0 || len(problems) == 0 {
		inProblem := map[string]bool{}
		for _, pr := range problems {
			for _, p := range pr.policies {
				inProblem[p.String()] = true
			}
		}
		for _, p := range policies {
			if !inProblem[p.String()] {
				res.Repaired = append(res.Repaired, p)
			}
		}
	}

	// The rows no sub-problem solved follow the merged constructs: every
	// destination's when the aETG changed, and every class's whose
	// destination was solved or whose aETG changed, with the deviations its
	// configured ACLs make. Per-destination repairs freeze the aETG, so this
	// is usually O(solved destinations).
	allChanged := !out.All.Equal(orig.All)
	res.Touched = make(map[string]bool, len(solvedTCs))
	var unsolved []int
	for r, tc := range h.TCs {
		solved := solvedTCs[tc.Key()]
		if !solved && !allChanged && !solvedDsts[tc.Dst.Name] {
			continue
		}
		res.Touched[tc.Key()] = true
		if !solved {
			unsolved = append(unsolved, r)
		}
	}
	if allChanged {
		for r, dst := range h.Dsts {
			if !solvedDsts[dst.Name] {
				out.DeriveDst(r)
			}
		}
	}
	if len(unsolved) > 0 {
		h.DeriveConfiguredTCs(out, unsolved)
	}
	res.Duration = time.Since(start)
	return res, ctx.Err()
}

// buildProblems decomposes the specification per Options.Granularity.
func buildProblems(h *harc.HARC, policies []policy.Policy, opts Options) ([]*problem, error) {
	var problems []*problem
	switch opts.Granularity {
	case AllTCs:
		problems = append(problems, &problem{
			label:    "all-tcs",
			tcs:      uniqueTCs(policies),
			policies: policies,
			freeze:   false,
		})
	case PerDst:
		groups := policy.GroupByDst(policies)
		// Destinations coupled by an isolation policy must be solved
		// together; collect the set of coupled destination names.
		coupledDst := map[string]bool{}
		for _, p := range policies {
			if p.Kind == policy.Isolated && p.TC.Dst.Name != p.TC2.Dst.Name {
				coupledDst[p.TC.Dst.Name] = true
				coupledDst[p.TC2.Dst.Name] = true
			}
		}
		var pc4Group []policy.Policy
		for _, name := range policy.SortedGroupNames(groups) {
			g := groups[name]
			merge := coupledDst[name]
			for _, p := range g {
				if p.Kind == policy.PrimaryPath {
					merge = true
				}
			}
			if merge {
				// Link costs are shared across destinations (PC4), and
				// isolation couples classes across destinations, so such
				// groups are merged into one problem.
				pc4Group = append(pc4Group, g...)
				continue
			}
			if len(policy.Violations(h, g)) == 0 {
				continue // no violated policy for this destination
			}
			problems = append(problems, &problem{
				label:    name,
				tcs:      uniqueTCs(g),
				policies: g,
				freeze:   true,
			})
		}
		if len(policy.Violations(h, pc4Group)) > 0 {
			problems = append(problems, &problem{
				label:    "pc4-merged",
				tcs:      uniqueTCs(pc4Group),
				policies: pc4Group,
				freeze:   true,
			})
		}
	default:
		return nil, fmt.Errorf("core: unknown granularity %d", opts.Granularity)
	}
	for _, pr := range problems {
		pr.stat.Label = pr.label
		pr.stat.TCs = len(pr.tcs)
		pr.stat.Policies = len(pr.policies)
	}
	return problems, nil
}

// scheduleOrder returns the problems largest-first (stable on the
// original order for ties), so the parallel fan-out never strands the
// biggest sub-problem at the tail of the schedule. Scheduling order is
// invisible in results: RepairCtx merges models in original problem
// order and sorts Stats by label.
func scheduleOrder(problems []*problem) []*problem {
	out := make([]*problem, len(problems))
	copy(out, problems)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].sizeHint() > out[j].sizeHint()
	})
	return out
}

// sizeHint estimates a sub-problem's encoding size for scheduling.
// Traffic classes dominate the variable count; policies break ties.
func (pr *problem) sizeHint() int { return len(pr.tcs)*16 + len(pr.policies) }

// worker is what one runProblems goroutine keeps across the sub-problems
// it solves in one repair: the constraint-building scratch (formula arena
// and CNF stream) every encode resets, the storage every attempt encodes
// and solves in, and the solver of its last finished attempt, which the
// next attempt resets and reuses instead of allocating its own. A worker's
// solver never leaves it; only a panicking attempt's solver is dropped.
// All of it dies with the repair: nothing is kept across repairs
// (DESIGN.md, "One solver per worker", "The capacity rule").
type worker struct {
	b     *formula.Builder
	spare *sat.Solver
	store encStorage
}

func newWorker() *worker { return &worker{b: formula.NewBuilder(formula.NewPool())} }

// solverTaken, when set, is told about every attempt's solver and whether
// it is a reset one. Only tests set it, to see how much of a workload
// recycling reaches and which solvers it hands out.
var solverTaken func(s *sat.Solver, reset bool)

// solver returns an attempt's solver: the worker's spare, reset, or a new
// one when there is no spare.
func (w *worker) solver() *sat.Solver {
	s, reset := w.spare, w.spare != nil
	if reset {
		w.spare = nil
		s.Reset()
	} else {
		s = sat.New()
	}
	if solverTaken != nil {
		solverTaken(s, reset)
	}
	return s
}

// runProblems is the fan-out: a fixed worker pool drains the problem
// queue largest-first (deterministic dispatch under Parallelism 1), and
// every problem resolves to solved, degraded, or failed — never to an
// aborted batch or a dead process.
func runProblems(ctx context.Context, h *harc.HARC, tb *tables, orig *harc.State, problems []*problem, opts Options) {
	workers := opts.Workers()
	var pending atomic.Int64
	pending.Store(int64(len(problems)))
	queue := make(chan *problem, len(problems))
	for _, pr := range scheduleOrder(problems) {
		queue <- pr
	}
	close(queue)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker()
			for pr := range queue {
				solveProblem(ctx, w, h, tb, orig, pr, opts, workers, &pending)
				pending.Add(-1)
			}
		}()
	}
	wg.Wait()
}

// solveProblem drives one sub-problem to a terminal outcome: a solve-
// cache replay, a compressed solve, or up to maxAttempts uncompressed
// attempts — each in its own failure domain (solveOnce) under a watchdog
// deadline, retried with an escalating conflict budget on a transient
// Unknown — and then the greedy fallback. The monolithic all-tcs problem
// (the one problem that does not freeze the aETG) gets one attempt and no
// fallback: its caller's ConflictBudget is the paper's 8-hour-limit
// analogue, so escalating it would move the DNF cells of Figures 7 and 9,
// and realizeGreedy is written for frozen-aETG problems.
func solveProblem(ctx context.Context, w *worker, h *harc.HARC, tb *tables, orig *harc.State, pr *problem, opts Options, workers int, pending *atomic.Int64) {
	t0 := time.Now()
	defer func() { pr.stat.Duration = time.Since(t0) }()

	fp, epochBound, memo := problemMemo(tb, orig, pr, opts)
	if memo {
		if ent := opts.Cache.lookup(fp); ent != nil {
			ent.replay(pr)
			return
		}
	}
	// memoize stores a terminal outcome the cache may keep.
	memoize := func() {
		if memo && cacheableOutcome(pr, ctx.Err()) {
			opts.Cache.store(fp, entryFor(pr, epochBound))
		}
	}
	if tryCompressed(ctx, w, tb, orig, pr, opts) {
		memoize()
		return
	}
	attempts := maxAttempts
	if !pr.freeze {
		attempts = 1
	}
	o := opts
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			pr.stat.Outcome = OutcomeFailed
			pr.stat.Err = "cancelled: " + err.Error()
			return
		}
		pr.stat.Attempts = attempt
		wctx, cancel := watchdogCtx(ctx, workers, pending)
		enc, cost, status, err := solveOnce(wctx, w, pr, tb, orig, pr.tcs, pr.policies, pr.freeze, o, attempt)
		cancel()
		pr.stat.Status = status
		if err == nil {
			switch status {
			case sat.Sat:
				pr.realized = orig.Clone()
				enc.extract(pr.realized)
				pr.stat.Outcome = OutcomeSolved
				pr.stat.Violations = cost
				memoize()
				return
			case sat.Unsat:
				// Deterministic: no retry, and no fallback either — the
				// greedy baseline cannot satisfy an unsatisfiable group.
				pr.stat.Outcome = OutcomeFailed
				pr.stat.Err = "unsatisfiable"
				memoize()
				return
			}
			// Unknown: watchdog expiry, a spurious interrupt, or budget
			// exhaustion — transient either way; retry with more budget.
			lastErr = &SolveError{Label: pr.label, Phase: "solve", Attempt: attempt,
				Err: fmt.Errorf("solver returned unknown (budget %d)", o.ConflictBudget)}
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			pr.stat.Outcome = OutcomeFailed
			pr.stat.Err = "cancelled: " + ctx.Err().Error()
			return
		}
		if o.ConflictBudget > 0 {
			o.ConflictBudget *= budgetEscalation
		}
	}
	degrade(h, orig, pr, lastErr)
}

// solveOnce is one attempt, compressed or not: it encodes the formula of
// tcs and policies over tb and orig in w's storage, on w's spare solver
// reset (or a new one), solves it, times both stages and adds the
// attempt's size and search counters to pr's stats. Panics anywhere in
// encoding or search are recovered into SolveErrors naming the phase, so
// a pathological destination cannot kill the process or its sibling
// solves. Unless it panicked, the attempt leaves its solver as w's spare
// for the next attempt to reset.
func solveOnce(ctx context.Context, w *worker, pr *problem, tb *tables, orig *harc.State, tcs []topology.TrafficClass, policies []policy.Policy, freeze bool, opts Options, attempt int) (enc *encoder, cost int, status sat.Status, err error) {
	phase := "encode"
	defer func() {
		r := recover()
		if r != nil {
			err = &SolveError{Label: pr.label, Phase: phase, Attempt: attempt, Panic: r}
			status = sat.Unknown
		}
		if enc == nil {
			return
		}
		pr.stat.Vars = enc.s.NumVars()
		pr.stat.Softs = len(enc.softs)
		pr.stat.Conflicts += enc.s.Conflicts
		pr.stat.Solver.Accumulate(enc.s.Snapshot())
		if r == nil {
			w.spare = enc.s
		}
	}()
	te := time.Now()
	enc = newEncoder(w, w.solver(), tb, orig, tcs, policies, freeze, opts)
	if eerr := enc.encode(ctx); eerr != nil {
		pr.stat.EncodeNs += time.Since(te).Nanoseconds()
		return enc, 0, sat.Unknown, &SolveError{Label: pr.label, Phase: "encode", Attempt: attempt, Err: eerr}
	}
	pr.stat.EncodeNs += time.Since(te).Nanoseconds()
	phase = "solve"
	ts := time.Now()
	cost, status = enc.solve(ctx)
	pr.stat.SolveNs += time.Since(ts).Nanoseconds()
	return enc, cost, status, nil
}

// watchdogCtx derives one attempt's deadline: a fair share of the
// request's remaining budget (remaining time divided by the number of
// solve waves left). Without any deadline the parent context is used
// as-is, so the common no-deadline path allocates nothing.
func watchdogCtx(ctx context.Context, workers int, pending *atomic.Int64) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ctx, func() {}
	}
	p := pending.Load()
	if p < 1 {
		p = 1
	}
	waves := (p + int64(workers) - 1) / int64(workers)
	return context.WithTimeout(ctx, remaining/time.Duration(waves))
}

// degrade resolves an exhausted sub-problem: greedy fallback when the
// problem froze the aETG, the policy classes support it and the realized
// repair verifies, failed otherwise.
func degrade(h *harc.HARC, orig *harc.State, pr *problem, lastErr error) {
	pr.stat.Outcome = OutcomeFailed
	if lastErr != nil {
		pr.stat.Err = lastErr.Error()
	}
	if !pr.freeze || !greedyEligible(pr.policies) {
		return
	}
	gres, err := greedy.Repair(h, pr.policies)
	if err != nil || !gres.Clean {
		return
	}
	realized, changes, ok := realizeGreedy(h, orig, pr, gres)
	if !ok {
		return
	}
	pr.realized = realized
	pr.realizedChanges = changes
	pr.stat.Outcome = OutcomeDegraded
	pr.stat.Fallback = "greedy"
}

// greedyEligible reports whether every policy in the group belongs to a
// class the greedy baseline can repair (PC1-PC3; PC4 and isolation are
// out of its scope).
func greedyEligible(ps []policy.Policy) bool {
	for _, p := range ps {
		switch p.Kind {
		case policy.AlwaysBlocked, policy.AlwaysWaypoint, policy.KReachable:
		default:
			return false
		}
	}
	return true
}

// realizeGreedy translates a clean greedy repair into per-destination
// constructs (static routes for added inter-device dETG edges, route-
// filter removals for intra and dest edges) and recomputes the presence
// those constructs imply on a private trial state. Construct edits can
// open edges the greedy state never asked for — clearing one route
// filter unblocks every edge it gated — so the fallback is accepted only
// if the realized state still satisfies the sub-problem's policies.
func realizeGreedy(h *harc.HARC, orig *harc.State, pr *problem, gres *greedy.Result) (*harc.State, int, bool) {
	gst := gres.State
	trial := orig.Clone()
	dsts := pr.dsts()
	for _, dst := range dsts {
		r := h.DstRow(dst)
		gdm := gst.Dst[r]
		realizable := true
		bitset.EachDiff(gdm, orig.Dst[r], func(id int) {
			if !gdm.Has(id) {
				return // greedy repairs only add dETG edges
			}
			switch s := h.Slots[id]; s.Kind {
			case arc.SlotInterDevice:
				trial.SetStatic(r, id, true)
			case arc.SlotIntraSelf, arc.SlotDest:
				trial.SetRouteFilter(r, s.FromProcID, false)
			case arc.SlotIntraRedist:
				// Per-dst repairs freeze the aETG: an absent
				// redistribution adjacency cannot be recreated by any
				// per-destination construct.
				if !orig.All.Has(id) {
					realizable = false
				}
				trial.SetRouteFilter(r, s.FromProcID, false)
				trial.SetRouteFilter(r, s.ToProcID, false)
			}
		})
		if !realizable {
			return nil, 0, false
		}
	}
	trial.AddWaypoints(gst)
	for _, dst := range dsts {
		trial.DeriveDst(h.DstRow(dst))
	}
	// A class keeps the greedy repair's deviations (harc.State.Deviates).
	dev := bitset.New(len(h.Slots))
	for _, tc := range pr.tcs {
		r := h.TCRow(tc)
		for id := range h.Slots {
			dev.Put(id, gst.Deviates(r, id))
		}
		trial.DeriveTC(r, dev)
	}
	if len(VerifyRepair(h, trial, pr.policies)) != 0 {
		return nil, 0, false
	}
	return trial, gres.Changes, true
}

// mergeRows copies one usable sub-problem's rows from src, its staged
// repair (problem.realized), into the shared repaired state: its
// destinations' presence and construct rows, its traffic
// classes' rows, the aETG row when the problem solved it, any cost it
// changed and any waypoint it added. src descends from a Clone of an
// original state equal to orig on everything the problem reads, so whole
// rows carry exactly the problem's own writes.
func mergeRows(orig, out, src *harc.State, pr *problem) {
	for _, dst := range pr.dsts() {
		out.CopyDst(src, dst)
	}
	for _, tc := range pr.tcs {
		out.CopyTC(src, tc)
	}
	if !pr.freeze {
		out.CopyAll(src)
	}
	for ck, v := range src.Cost {
		if v != orig.Cost[ck] {
			out.Cost[ck] = v
		}
	}
	out.AddWaypoints(src)
}

// VerifyRepair checks that every policy holds on the repaired state.
func VerifyRepair(h *harc.HARC, st *harc.State, policies []policy.Policy) []policy.Policy {
	return VerifyRepairIncremental(h, st, policies, nil, 1)
}

// VerifyRepairIncremental is VerifyRepair restricted to the policies a
// repair could have affected: those whose traffic class (either class,
// for isolation policies) is in touched. A nil touched set checks every
// policy. Policies outside the set were verified satisfied before the
// repair and their class state is untouched (see Result.Touched), so
// skipping them loses nothing. The rest go through the checker's sweep
// (policy.StateChecker.Violations) on at most workers goroutines, and the
// returned violations are in input order regardless of parallelism.
func VerifyRepairIncremental(h *harc.HARC, st *harc.State, policies []policy.Policy, touched map[string]bool, workers int) []policy.Policy {
	var keep func(policy.Policy) bool
	if touched != nil {
		keep = func(p policy.Policy) bool {
			return touched[p.TC.Key()] || (p.Kind == policy.Isolated && touched[p.TC2.Key()])
		}
	}
	violated, _ := policy.NewStateChecker(h, st).Violations(context.Background(), policies, keep, workers)
	return violated
}
