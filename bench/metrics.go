package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one metric: the name every later performance claim
// uses, its unit, which direction is better, and — for end-to-end
// metrics — the share of the parent's median by which it may worsen
// before a change counts as a regression. Exact marks counts that
// repeat run to run on the same commit; -compare holds them to equality.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the system sees, measured with tracing
// off. BENCHMARK.json lists the same metrics (a test keeps the two in
// step); failed_share is reported beside them but is not listed there,
// because it is 0 on every accepted run and the result line's
// attempted/failed pair already carries it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "op_ms_p95", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "op_ms_p99", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: lower, Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "patch_lines", Unit: "lines", Better: lower, Bound: 0.001, Exact: true},
}

// failedShare is printed with the end-to-end metrics; see endToEnd.
var failedShare = metricDef{Name: "failed_share", Unit: "ratio", Better: lower, Exact: true}

// refP50 and rawP50 are printed with the end-to-end metrics and undo
// their restatement (see reference.go): the median time of the
// workload's yardstick over the run, and the median op (serve-mix: the
// chunks' median p50) as the clock read it.
var (
	refP50 = metricDef{Name: "ref_ms_p50", Unit: "ms", Better: lower}
	rawP50 = metricDef{Name: "op_ms_p50_raw", Unit: "ms", Better: lower}
)

func ms(name string) metricDef { return metricDef{Name: name, Unit: "ms", Better: lower} }
func mb(name string) metricDef { return metricDef{Name: name, Unit: "MB", Better: lower} }
func count(name string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: lower, Exact: true}
}
func share(name, better string) metricDef {
	return metricDef{Name: name, Unit: "ratio", Better: better}
}

// perLayer is the ledger of the traced run, one block per package of
// this repository. A layer that a workload bypasses reports 0.
var perLayer = []metricDef{
	// config: text in, text out.
	ms("config.parse_ms"), ms("config.extract_ms"), ms("config.print_ms"),
	{Name: "config.input_kb", Unit: "kB", Better: lower, Exact: true},
	// harc: the concrete all-pairs abstraction.
	ms("harc.build_ms"), mb("harc.build_alloc_mb"), count("harc.tcs"),
	// policy: parsing and the graph verifier.
	ms("policy.parse_ms"), ms("policy.verify_ms"), count("policy.count"), count("policy.violated"),
	// compress: the quotient construction.
	ms("compress.build_ms"), count("compress.classes"), count("compress.quotient_devices"),
	{Name: "compress.ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "compress.engaged_share", Unit: "ratio", Better: higher, Exact: true},
	count("compress.fallbacks"),
	// core: decomposition, encoding, the solve fan-out.
	ms("core.repair_ms"), mb("core.repair_alloc_mb"), count("core.subproblems"),
	ms("core.subproblem_busy_ms"), ms("core.qharc_busy_ms"), ms("core.encode_busy_ms"),
	ms("core.solve_busy_ms"), ms("core.concretize_busy_ms"), ms("core.reverify_busy_ms"),
	ms("core.other_busy_ms"), ms("core.serial_est_ms"),
	count("core.vars"), count("core.softs"), count("core.extra_attempts"),
	count("core.degraded"), count("core.failed"), ms("core.final_verify_ms"),
	// sat / maxsat / card: solver counters summed over sub-problems.
	count("sat.conflicts"), count("sat.decisions"), count("sat.propagations"),
	{Name: "sat.binary_prop_share", Unit: "ratio", Better: higher, Exact: true},
	count("sat.restarts"), count("sat.learned_lits"), count("sat.db_reductions"), count("sat.arena_gcs"),
	{Name: "sat.props_per_us", Unit: "1/us", Better: higher},
	count("maxsat.assump_solves"), count("maxsat.cores"), count("maxsat.hardened_softs"),
	count("card.totalizer_vars"),
	// translate: repaired state back to configuration lines.
	ms("translate.translate_ms"), mb("translate.alloc_mb"), count("translate.lines"), count("translate.groups"),
	// cpr: the public API's glue around the layers.
	ms("cpr.load_ms"), ms("cpr.load_self_ms"), ms("cpr.repairctx_ms"), ms("cpr.repairctx_self_ms"),
	ms("cpr.replay_verify_ms"),
	// session: cpr.Session called directly, no HTTP.
	ms("session.new_ms"), ms("session.delta_ms"), ms("session.repair_miss_ms"),
	ms("session.repair_replay_ms"), ms("session.repair_memo_ms"),
	// server: one in-process cprd under the load mix.
	ms("server.verify_ms_p50"), ms("server.verify_ms_p99"),
	ms("server.repair_ms_p50"), ms("server.repair_ms_p99"),
	ms("server.delta_ms_p50"), ms("server.delta_ms_p99"),
	ms("server.http_overhead_ms"),
	{Name: "server.session_builds", Unit: "count", Better: lower},
	share("server.session_hit_share", higher),
	{Name: "server.delta_builds", Unit: "count", Better: lower},
	share("server.delta_hit_share", higher),
	share("server.solve_hit_share", higher), share("server.reused_share", higher),
	mb("server.retained_mb"),
	{Name: "server.retained_solvers", Unit: "count", Better: lower},
	count("server.rejected"),
	// fleet: the same schedule through a front and two replicas.
	ms("fleet.front_op_ms_p50"), ms("fleet.front_op_ms_p99"), ms("fleet.front_overhead_ms"),
	share("fleet.reroute_share", lower),
	{Name: "fleet.retries", Unit: "count", Better: lower},
	{Name: "fleet.failovers", Unit: "count", Better: lower},
	{Name: "fleet.hedges", Unit: "count", Better: lower},
	{Name: "fleet.replications", Unit: "count", Better: lower},
	share("fleet.skew_max_over_mean", lower),
	// runtime: the Go runtime under the workload.
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	ms("runtime.gc_pause_ms"), share("runtime.gc_cpu_share", lower),
	{Name: "runtime.mallocs_per_op", Unit: "count", Better: lower},
	share("runtime.sys_cpu_share", lower), mb("runtime.heap_peak_mb"),
	// harness: the benchmark's own cost and blind spots.
	ms("harness.warmup_ms"), share("harness.trace_coverage", higher),
	share("harness.trace_overhead_share", lower),
}

// defs indexes every metric the benchmark may report.
var defs = func() map[string]metricDef {
	m := map[string]metricDef{failedShare.Name: failedShare, refP50.Name: refP50, rawP50.Name: rawP50}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			m[d.Name] = d
		}
	}
	return m
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 when it is a
	// single reading or a derived figure).
	N     int    `json:"n,omitempty"`
	Exact bool   `json:"exact,omitempty"`
	Note  string `json:"note,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Failures explains every failed op or violated self-check.
	Failures []string `json:"failures,omitempty"`
}

func newResult(workload string, rc runConfig) *result {
	return &result{Workload: workload, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Correct: true, Metrics: map[string]value{}}
}

// set records a metric; the name must be declared in defs.
func (r *result) set(name string, v float64, n int) {
	d, ok := defs[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	r.Metrics[name] = value{Value: v, Unit: d.Unit, N: n, Exact: d.Exact}
}

func (r *result) note(name, note string) {
	v := r.Metrics[name]
	v.Note = note
	r.Metrics[name] = v
}

func (r *result) get(name string) float64 { return r.Metrics[name].Value }

// fail records a failed op (or a failed check on one).
func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN records n failed ops with one explanation.
func (r *result) failN(n int, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// reported lists the metrics the run's mode promises, in declaration
// order, filling layers the workload bypasses with 0.
func (r *result) reported() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// summaryLine renders the one-line JSON object the benchmark contract
// asks for as the last line of standard output.
func (r *result) summaryLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv)
	for _, d := range r.reported() {
		ms[d.Name] = mv{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// lines renders one "workload metric value unit" row per metric the run
// recorded, declared metrics first and in declaration order.
func (r *result) lines() []string {
	var out []string
	row := func(name string) {
		v, ok := r.Metrics[name]
		if !ok {
			return
		}
		s := fmt.Sprintf("%s %s %.6g %s", r.Workload, name, v.Value, v.Unit)
		if v.N > 0 {
			s += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Exact {
			s += " exact"
		}
		if v.Note != "" {
			s += " (" + v.Note + ")"
		}
		out = append(out, s)
	}
	seen := map[string]bool{}
	for _, d := range r.reported() {
		row(d.Name)
		seen[d.Name] = true
	}
	var rest []string
	for name := range r.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		row(name)
	}
	return out
}
