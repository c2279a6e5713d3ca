package core

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
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
	// OutcomeSolved: an optimal repair passed the acceptance gate.
	OutcomeSolved Outcome = iota
	// OutcomeFailed: no usable repair for this sub-problem (unsatisfiable,
	// cancelled, every attempt failed, or the gate rejected the answer).
	OutcomeFailed
)

func (o Outcome) String() string {
	if o == OutcomeFailed {
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
	// back to the uncompressed solve otherwise). No product path sets it:
	// compression is the engine's call (CompressAuto). Tests pin either
	// side of the rule with it, and the benchmark's reference
	// configuration turns it off.
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
// it is reported failed.
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
	// Outcome is the sub-problem's disposition: solved or failed.
	Outcome Outcome
	// Attempts is the number of solve attempts made (0 when the
	// sub-problem was cancelled before starting).
	Attempts int
	// Err describes the terminal solver failure, when there was one.
	Err string
	// Conflicts is the SAT solver's conflict count for this sub-problem
	// (summed across attempts).
	Conflicts int64
	// Solver holds the full solver counter snapshot for this sub-problem
	// (summed across attempts); Solver.Conflicts == Conflicts.
	Solver   sat.Stats
	Duration time.Duration
	// Compressed marks a sub-problem solved on a symmetry-compressed
	// quotient network whose concretized patch passed the acceptance
	// gate. Vars/Softs then describe the quotient problem.
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
	// attempts. EncodeNs, SolveNs and ReverifyNs (the acceptance gate)
	// cover every path; HarcBuildNs (quotient HARC construction) and
	// ConcretizeNs (patch fan-out) only compression attempts.
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
	// State is the repaired HARC state. It reflects every solved
	// sub-problem even when some failed.
	State *harc.State
	// Changes is the total number of violated soft constraints across
	// solved sub-problems: the modeled count of configuration changes.
	Changes int
	// Solved reports that every sub-problem found an optimal repair.
	Solved bool
	// Degraded is always 0; it is kept for bench/'s readers until ROADMAP
	// item 9 (x) deletes it.
	Degraded int
	// Failed counts sub-problems with no repair; Solved is false whenever
	// it is nonzero.
	Failed int
	// Repaired lists the policies of solved sub-problems (each checked by
	// the acceptance gate) and those outside every sub-problem: the subset
	// of the specification guaranteed to hold on State.
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

// Usable reports that at least one sub-problem produced a repair — the
// partial-result analogue of Solved.
func (r *Result) Usable() bool { return len(r.Repaired) > 0 }
