package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/formula"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

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
// every problem resolves to solved or failed — never to an aborted batch
// or a dead process. The caller is one of the workers (harc.ParallelFor),
// so a lone sub-problem, such as a replay, runs on the caller's stack
// rather than growing a new goroutine's.
func runProblems(ctx context.Context, tb *tables, orig *harc.State, problems []*problem, opts Options) {
	workers := opts.Workers()
	var pending atomic.Int64
	pending.Store(int64(len(problems)))
	queue := make(chan *problem, len(problems))
	for _, pr := range scheduleOrder(problems) {
		queue <- pr
	}
	close(queue)
	harc.ParallelFor(min(workers, len(problems)), workers, func(int) {
		w := newWorker()
		for pr := range queue {
			solveProblem(ctx, w, tb, orig, pr, opts, workers, &pending)
			pending.Add(-1)
		}
	})
}

// solveProblem drives one sub-problem to a terminal outcome: a solve-
// cache replay, a compressed solve, or up to maxAttempts uncompressed
// attempts — each in its own failure domain (solveOnce) under a watchdog
// deadline, retried with an escalating conflict budget on a transient
// Unknown. A sub-problem that exhausts its attempts fails with the last
// attempt's error. The monolithic all-tcs problem (the one problem that
// does not freeze the aETG) gets one attempt: its caller's ConflictBudget
// is the paper's 8-hour-limit analogue, so escalating it would move the
// DNF cells of Figures 7 and 9. Every path's answer goes through accept.
func solveProblem(ctx context.Context, w *worker, tb *tables, orig *harc.State, pr *problem, opts Options, workers int, pending *atomic.Int64) {
	t0 := time.Now()
	defer func() { pr.stat.Duration = time.Since(t0) }()

	pr.stat.Outcome = OutcomeFailed
	fp, epochBound, memo := problemMemo(tb, orig, pr, opts)
	if memo {
		if opts.Cache.replay(fp, tb.h, pr) {
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
			pr.stat.Err = "cancelled: " + err.Error()
			return
		}
		pr.stat.Attempts = attempt
		wctx, cancel := watchdogCtx(ctx, workers, pending)
		enc, cost, status, err := solveOnce(wctx, w, pr, tb, orig, pr.tcs, pr.policies, pr.freeze, o, attempt)
		cancel()
		if err == nil {
			switch status {
			case sat.Sat:
				st := orig.Clone()
				enc.extract(st)
				if err := accept(tb.h, pr, st, cost); err != nil {
					pr.stat.Err = err.Error() // deterministic: no retry, never cached
				}
				memoize()
				return
			case sat.Unsat:
				// Deterministic: no retry.
				pr.stat.Status = sat.Unsat
				pr.stat.Err = "unsatisfiable"
				memoize()
				return
			}
			// Unknown: watchdog expiry, a spurious interrupt, or budget
			// exhaustion — transient either way; retry with more budget.
			budget := "no conflict budget"
			if o.ConflictBudget > 0 {
				budget = fmt.Sprintf("budget %d", o.ConflictBudget)
			}
			err = &SolveError{Label: pr.label, Phase: "solve", Attempt: attempt,
				Err: fmt.Errorf("solver returned unknown (%s)", budget)}
		}
		lastErr = err
		if ctx.Err() != nil {
			pr.stat.Err = "cancelled: " + ctx.Err().Error()
			return
		}
		if o.ConflictBudget > 0 {
			o.ConflictBudget *= budgetEscalation
		}
	}
	pr.stat.Err = lastErr.Error()
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
