package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/compress"
	"repro/internal/policy"
	"repro/internal/topology"
)

// ledger accumulates one round's per-layer figures, summed over the
// round's ops. Reported values are per op: the round's sum divided by
// its op count, then the median over rounds. On a single-input workload
// that is the median op; on corpus-batch it is the mean op of a pass,
// which keeps the layers additive (they sum to the pass's wall clock).
// Keys starting with "_" are intermediate sums, never reported.
type ledger map[string]float64

// tracedRounds is the per-layer measurement: every input runs twice per
// round, once through the public API and once as the layer-by-layer
// re-composition, both under spans.
func (b *batchRun) tracedRounds(warmMS float64) {
	minRounds := (b.w.minRounds + 1) / 2 // a traced round runs each input twice
	var rounds []ledger
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := 0
	pairs := newPairTimes(len(b.ins))
	start := time.Now()
	for r := 0; !b.roundsDone(start, r, minRounds); r++ {
		l := ledger{}
		for i := range b.ins {
			// Alternate which composition goes first, so that whatever
			// the first op of a pair leaves behind (warm caches, a grown
			// heap) favours neither.
			var apiMS, layeredMS float64
			var oa, ol *opOutput
			if r%2 == 0 {
				apiMS, oa = b.timedOp(apiOp, b.rec, i)
				layeredMS, ol = b.timedOp(layeredOp, b.rec, i)
			} else {
				layeredMS, ol = b.timedOp(layeredOp, b.rec, i)
				apiMS, oa = b.timedOp(apiOp, b.rec, i)
			}
			if oa == nil || ol == nil {
				return // the failure is recorded; a partial ledger would mislead
			}
			pairs.add(i, apiMS, layeredMS)
			addOutput(l, b.ins[i], ol)
			ops += 2
		}
		rounds = append(rounds, l)
	}
	runtime.ReadMemStats(&m1)

	// Spans are summed per round by name. Rounds are contiguous runs of
	// 2*len(ins) ops, starting after the warm-up round's op ids.
	self := selfTimes(b.rec.spans)
	firstOp := len(b.ins) + 1
	for i, s := range b.rec.spans {
		r := (s.Op - firstOp) / (2 * len(b.ins))
		if s.Op < firstOp || r >= len(rounds) {
			continue
		}
		rounds[r]["_span."+s.Name] += float64(s.dur()) / float64(time.Millisecond)
		rounds[r]["_alloc."+s.Name] += float64(s.Alloc) / 1e6
		if s.Name == "op.layers" {
			rounds[r]["_layers_self_ms"] += float64(self[i]) / float64(time.Millisecond)
		}
	}

	n := float64(len(b.ins))
	med := func(key string) float64 {
		xs := make([]float64, len(rounds))
		for i, l := range rounds {
			xs[i] = l[key] / n
		}
		return median(xs)
	}
	set := func(name string, v float64) { b.res.set(name, v, len(rounds)) }
	span := func(names ...string) float64 {
		var t float64
		for _, name := range names {
			t += med("_span." + name)
		}
		return t
	}
	set("config.parse_ms", span("config.parse"))
	set("config.extract_ms", span("config.extract"))
	set("config.print_ms", span("config.print"))
	set("harc.build_ms", span("harc.build"))
	set("harc.build_alloc_mb", med("_alloc.harc.build"))
	set("policy.parse_ms", span("policy.parse"))
	set("policy.verify_ms", span("policy.violations"))
	set("core.repair_ms", span("core.repairctx"))
	set("core.repair_alloc_mb", med("_alloc.core.repairctx"))
	set("core.final_verify_ms", span("core.verify_incremental"))
	set("translate.translate_ms", span("translate.clone", "translate.translate"))
	set("translate.alloc_mb", med("_alloc.translate.clone")+med("_alloc.translate.translate"))
	set("cpr.load_ms", span("cpr.load"))
	set("cpr.load_self_ms", span("cpr.load")-span("config.parse", "config.extract", "harc.build"))
	set("cpr.repairctx_ms", span("cpr.repairctx"))
	set("cpr.repairctx_self_ms", span("cpr.repairctx")-
		span("core.repairctx", "core.verify_incremental", "translate.clone", "translate.translate", "config.print"))
	set("cpr.replay_verify_ms", span("cpr.replay_verify"))
	for _, name := range []string{
		"config.input_kb", "harc.tcs", "policy.count", "policy.violated", "compress.fallbacks",
		"core.subproblems", "core.subproblem_busy_ms", "core.qharc_busy_ms", "core.encode_busy_ms",
		"core.solve_busy_ms", "core.concretize_busy_ms", "core.reverify_busy_ms",
		"core.vars", "core.softs", "core.extra_attempts", "core.degraded", "core.failed",
		"sat.conflicts", "sat.decisions", "sat.propagations", "sat.restarts", "sat.learned_lits",
		"sat.db_reductions", "sat.arena_gcs", "maxsat.assump_solves", "maxsat.cores",
		"maxsat.hardened_softs", "card.totalizer_vars", "translate.lines", "translate.groups",
	} {
		set(name, med(name))
	}
	// serial_est: time inside core.RepairCtx under no sub-problem timer,
	// taking the fan-out to last as long as its lower bound — the longest
	// sub-problem, or all of them perfectly packed over the workers.
	set("core.serial_est_ms", span("core.repairctx")-med("_fanout_floor_ms"))
	set("core.other_busy_ms", med("core.subproblem_busy_ms")-med("core.qharc_busy_ms")-med("core.encode_busy_ms")-
		med("core.solve_busy_ms")-med("core.concretize_busy_ms")-med("core.reverify_busy_ms"))
	set("sat.binary_prop_share", ratio(med("_sat.binary_props"), med("sat.propagations")))
	set("sat.props_per_us", ratio(med("sat.propagations"), med("core.solve_busy_ms")*1000))
	set("compress.classes", ratio(med("_compress.classes"), med("_compress.attempted")))
	set("compress.quotient_devices", ratio(med("_compress.quotient_devices"), med("_compress.attempted")))
	set("compress.ratio", ratio(med("_compress.ratio"), med("_compress.attempted")))
	set("compress.engaged_share", ratio(med("_compress.engaged"), med("core.subproblems")))
	if ms, err := b.compressProbe(); err != nil {
		b.res.fail("compress probe: %v", err)
	} else {
		b.res.set("compress.build_ms", median(ms), len(ms))
	}

	b.res.set("harness.warmup_ms", warmMS/n, len(b.ins))
	coverage := 1 - ratio(med("_layers_self_ms"), span("op.layers"))
	set("harness.trace_coverage", coverage)
	overhead := pairs.medianRatio() - 1
	b.res.set("harness.trace_overhead_share", overhead, len(pairs.ratios))
	runtimeLedger(b.res, &m0, &m1, ops)

	path, err := writeTrace(b.w.name, b.rec.spans)
	if err != nil {
		b.res.fail("writing trace: %v", err)
	}
	b.selfChecks(path, coverage, overhead, pairs.floorRatio()-1)
}

// pairTimes collects the (API op, layered op) timings of each input.
// The two ops of a pair run back to back on the same input from the
// same heap state, so their ratio cancels whatever slow phase the
// machine is in; the per-input minima cancel everything but the work.
type pairTimes struct {
	ratios         []float64
	minAPI, minLay []float64 // per input
}

func newPairTimes(inputs int) *pairTimes {
	return &pairTimes{minAPI: make([]float64, inputs), minLay: make([]float64, inputs)}
}

func (p *pairTimes) add(i int, apiMS, layeredMS float64) {
	p.ratios = append(p.ratios, layeredMS/apiMS)
	if p.minAPI[i] == 0 || apiMS < p.minAPI[i] {
		p.minAPI[i] = apiMS
	}
	if p.minLay[i] == 0 || layeredMS < p.minLay[i] {
		p.minLay[i] = layeredMS
	}
}

// medianRatio is the median over pairs of layered time / API time.
func (p *pairTimes) medianRatio() float64 { return median(p.ratios) }

// floorRatio compares the fastest layered op with the fastest API op of
// each input, summed over inputs.
func (p *pairTimes) floorRatio() float64 { return sum(p.minLay) / sum(p.minAPI) }

// addOutput folds one layered op's result counters into the ledger.
func addOutput(l ledger, in *input, o *opOutput) {
	kb := float64(len(in.spec))
	for _, text := range in.configs {
		kb += float64(len(text))
	}
	l["config.input_kb"] += kb / 1024
	l["harc.tcs"] += float64(o.tcs)
	l["policy.count"] += float64(len(o.policies))
	l["policy.violated"] += float64(len(o.violated))

	res := o.out.Result
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 }
	var busy, longest float64
	for _, st := range res.Stats {
		d := msOf(st.Duration.Nanoseconds())
		busy += d
		if d > longest {
			longest = d
		}
		l["core.qharc_busy_ms"] += msOf(st.HarcBuildNs)
		l["core.encode_busy_ms"] += msOf(st.EncodeNs)
		l["core.solve_busy_ms"] += msOf(st.SolveNs)
		l["core.concretize_busy_ms"] += msOf(st.ConcretizeNs)
		l["core.reverify_busy_ms"] += msOf(st.ReverifyNs)
		l["core.vars"] += float64(st.Vars)
		l["core.softs"] += float64(st.Softs)
		if st.Attempts > 1 {
			l["core.extra_attempts"] += float64(st.Attempts - 1)
		}
		if st.DeviceClasses > 0 { // compression was attempted
			l["_compress.attempted"]++
			l["_compress.classes"] += float64(st.DeviceClasses)
			l["_compress.quotient_devices"] += float64(st.QuotientDevices)
			l["_compress.ratio"] += st.CompressRatio
		}
	}
	l["core.subproblems"] += float64(len(res.Stats))
	l["core.subproblem_busy_ms"] += busy
	workers := runtime.GOMAXPROCS(0)
	if len(res.Stats) < workers {
		workers = len(res.Stats)
	}
	if workers > 0 && busy/float64(workers) > longest {
		longest = busy / float64(workers)
	}
	l["_fanout_floor_ms"] += longest
	l["core.degraded"] += float64(res.Degraded)
	l["core.failed"] += float64(res.Failed)
	l["_compress.engaged"] += float64(res.Compressed)
	l["compress.fallbacks"] += float64(res.CompressFallbacks)

	s := res.Solver
	l["sat.conflicts"] += float64(s.Conflicts)
	l["sat.decisions"] += float64(s.Decisions)
	l["sat.propagations"] += float64(s.Propagations)
	l["_sat.binary_props"] += float64(s.BinaryProps)
	l["sat.restarts"] += float64(s.Restarts)
	l["sat.learned_lits"] += float64(s.LearnedLits)
	l["sat.db_reductions"] += float64(s.DBReductions)
	l["sat.arena_gcs"] += float64(s.ArenaGCs)
	l["maxsat.assump_solves"] += float64(s.AssumpSolves)
	l["maxsat.cores"] += float64(s.CoresExtracted)
	l["maxsat.hardened_softs"] += float64(s.HardenedSofts)
	l["card.totalizer_vars"] += float64(s.TotalizerVars)

	l["translate.lines"] += float64(o.out.Plan.NumLines())
	l["translate.groups"] += float64(len(o.out.Plan.Groups))
}

// compressProbe times compress.Build directly on each input's network,
// for the traffic classes of one violated destination — the quotient a
// per-destination sub-problem would ask for — whether or not the repair
// itself chose to compress.
func (b *batchRun) compressProbe() ([]float64, error) {
	var out []float64
	for _, in := range b.ins {
		n, err := extractText(in.configs)
		if err != nil {
			return nil, err
		}
		policies, err := policy.Parse(n, in.spec)
		if err != nil {
			return nil, err
		}
		// Any destination will do for a timing; take the specification's
		// first, so the probe needs no HARC.
		var tcs []topology.TrafficClass
		for _, p := range policies {
			if p.TC.Dst == policies[0].TC.Dst {
				tcs = append(tcs, p.TC)
			}
		}
		var times []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := compress.Build(n, compress.Spec{TCs: tcs, Redundancy: 2}); err != nil {
				return nil, err
			}
			times = append(times, float64(time.Since(t0))/float64(time.Millisecond))
		}
		out = append(out, median(times))
	}
	return out, nil
}

// runtimeLedger reports the Go runtime's share of a timed region of ops
// ops, bracketed by the two MemStats readings.
func runtimeLedger(res *result, m0, m1 *runtime.MemStats, ops int) {
	n := float64(ops)
	res.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/n, ops)
	res.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/n, ops)
	res.set("runtime.gc_cpu_share", m1.GCCPUFraction, 0)
	res.set("runtime.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, ops)
	res.set("runtime.heap_peak_mb", float64(m1.HeapSys)/1e6, 0)
	if user, sys, err := cpuSeconds(); err == nil && user+sys > 0 {
		res.set("runtime.sys_cpu_share", sys/(user+sys), 0)
	}
}

// selfChecks asserts what makes the ledger and the workloads worth
// reading: spans explain the op, tracing and re-composition cost
// nothing measurable, and each workload is still dominated by the layer
// it was chosen for. A failure means the input or the pipeline drifted:
// fix the workload (or the transcription in layeredOp), not the
// threshold.
func (b *batchRun) selfChecks(tracePath string, coverage, overhead, floorOverhead float64) {
	check := func(ok bool, format string, args ...any) {
		if !ok {
			b.res.fail("self-check: "+format, args...)
		}
	}
	if coverage < 0.95 {
		// Name what is uncovered, on the last layered op.
		gap := "no layered op recorded"
		for i := len(b.rec.spans) - 1; i >= 0; i-- {
			if b.rec.spans[i].Name == "op.layers" {
				gap = largestGap(b.rec.spans, i)
				break
			}
		}
		check(false, "harness.trace_coverage = %.3f, want >= 0.95; largest interval under no span: %s (see %s)", coverage, gap, tracePath)
	}
	// Op times on this class of machine wander by a few percent, so the
	// overhead must show in both estimators before it counts: the median
	// paired ratio (the reported metric) and the ratio of the fastest ops.
	check(overhead <= 0.03 || floorOverhead <= 0.03,
		"harness.trace_overhead_share = %.3f (%.3f between the fastest ops), want <= 0.03: the layered op runs slower than the API op it transcribes",
		overhead, floorOverhead)

	busy := b.res.get("core.subproblem_busy_ms")
	engaged := b.res.get("compress.engaged_share")
	switch b.w.name {
	case "fattree-pc4":
		solve := b.res.get("core.solve_busy_ms")
		check(solve >= 0.8*busy, "core.solve_busy_ms = %.1f of core.subproblem_busy_ms = %.1f, want >= 0.8", solve, busy)
		check(engaged == 0, "compress.engaged_share = %.3f, want 0", engaged)
	case "corpus-batch":
		encode := b.res.get("core.encode_busy_ms")
		check(encode >= 0.6*busy, "core.encode_busy_ms = %.1f of core.subproblem_busy_ms = %.1f, want >= 0.6", encode, busy)
		check(engaged == 0, "compress.engaged_share = %.3f, want 0", engaged)
	case "dc256-oneshot":
		check(engaged == 1, "compress.engaged_share = %.3f, want 1", engaged)
	default:
		panic(fmt.Sprintf("bench: no dominance prediction for batch workload %s", b.w.name))
	}
}
