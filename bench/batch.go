package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/topology"
	"repro/internal/translate"
)

// opDeadline fails an op instead of letting one pathological solve eat
// the run: the slowest healthy op (a cold dc256) takes a quarter of it.
const opDeadline = 60 * time.Second

// opOutput is what either composition of the pipeline hands the checks.
type opOutput struct {
	policies []cpr.Policy
	violated []cpr.Policy
	tcs      int // traffic classes in the loaded network's HARC
	out      *cpr.RepairOutput
}

// in runs fn inside a span; a nil recorder (tracing off) just runs it.
func (r *recorder) in(name string, op, parent int, fn func(id int)) {
	if r == nil {
		fn(-1)
		return
	}
	id := r.begin(name, op, parent)
	fn(id)
	r.end(id)
}

// apiOp is one op as a user of the library runs it: the whole
// cold-from-text pipeline through the public API, default options.
func apiOp(rec *recorder, op int, in *input) (*opOutput, error) {
	return apiOpWith(cpr.DefaultOptions(), rec, op, in)
}

// apiOpWith is apiOp under other repair options (the golden reference).
func apiOpWith(opts cpr.Options, rec *recorder, op int, in *input) (*opOutput, error) {
	o := &opOutput{}
	var err error
	rec.in("op.api", op, -1, func(root int) {
		var sys *cpr.System
		rec.in("cpr.load", op, root, func(int) { sys, err = cpr.Load(in.configs) })
		if err != nil {
			return
		}
		o.tcs = len(sys.HARC.TC)
		rec.in("cpr.parse_policies", op, root, func(int) { o.policies, err = sys.ParsePolicies(in.spec) })
		if err != nil {
			return
		}
		rec.in("cpr.verify", op, root, func(int) { o.violated = sys.Verify(o.policies) })
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		rec.in("cpr.repairctx", op, root, func(int) { o.out, err = sys.RepairCtx(ctx, o.policies, opts) })
	})
	return o, err
}

// layeredOp is the same op re-composed from each layer's public
// functions, in the order cpr.Load and System.RepairCtx call them, with
// a span around every call. It must stay a transcription of cpr.go: the
// ledger is only as good as this function's fidelity, which the traced
// run checks twice — the patched text must equal apiOp's byte for byte,
// and the op may not run measurably slower than apiOp's.
func layeredOp(rec *recorder, op int, in *input) (*opOutput, error) {
	o := &opOutput{out: &cpr.RepairOutput{}}
	var err error
	rec.in("op.layers", op, -1, func(root int) {
		// cpr.Load: parse in label order, index by hostname.
		labels := sortedKeys(in.configs)
		ordered := make([]*config.Config, 0, len(labels))
		byHost := make(map[string]*config.Config, len(labels))
		for _, k := range labels {
			var c *config.Config
			rec.in("config.parse", op, root, func(int) { c, err = config.Parse(k, in.configs[k]) })
			if err != nil {
				return
			}
			ordered = append(ordered, c)
			byHost[c.Hostname] = c
		}
		var n *topology.Network
		rec.in("config.extract", op, root, func(int) { n, err = config.Extract(ordered) })
		if err != nil {
			return
		}
		var h *harc.HARC
		rec.in("harc.build", op, root, func(int) { h = harc.Build(n) })
		o.tcs = len(h.TC)

		rec.in("policy.parse", op, root, func(int) { o.policies, err = policy.Parse(n, in.spec) })
		if err != nil {
			return
		}
		rec.in("policy.violations", op, root, func(int) { o.violated = policy.Violations(h, o.policies) })

		// System.RepairCtx.
		opts := cpr.DefaultOptions()
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		var res *core.Result
		rec.in("core.repairctx", op, root, func(int) { res, err = core.RepairCtx(ctx, h, o.policies, opts) })
		if err != nil {
			return
		}
		o.out.Result = res
		if !res.Usable() {
			return
		}
		var bad []policy.Policy
		rec.in("core.verify_incremental", op, root, func(int) {
			bad = core.VerifyRepairIncremental(h, res.State, res.Repaired, res.Touched, opts.Workers())
		})
		if len(bad) != 0 {
			err = fmt.Errorf("repair violates %d policies (first: %s)", len(bad), bad[0])
			return
		}
		var cfgs map[string]*config.Config
		rec.in("translate.clone", op, root, func(int) { cfgs, err = translate.CloneConfigs(byHost) })
		if err != nil {
			return
		}
		orig := res.Orig
		if orig == nil {
			orig = harc.StateOf(h)
		}
		rec.in("translate.translate", op, root, func(int) { o.out.Plan, err = translate.Translate(h, orig, res.State, cfgs) })
		if err != nil {
			return
		}
		o.out.PatchedConfigs = make(map[string]string, len(cfgs))
		for host, c := range cfgs {
			rec.in("config.print", op, root, func(int) { o.out.PatchedConfigs[host] = c.Print() })
		}
		if res.Compressed > 0 {
			rec.in("cpr.replay_verify", op, root, func(id int) {
				err = replayVerify(rec, op, id, o.out.PatchedConfigs, res)
			})
		}
	})
	return o, err
}

// replayVerify re-composes the patched-text replay that RepairCtx runs
// after a compressed repair (cpr.go's verifyPatchedConfigs, fast path):
// parse the patched text, extract, build the policy classes' HARC
// without its ETGs, and compare its state with the verified one.
func replayVerify(rec *recorder, op, parent int, patched map[string]string, res *core.Result) error {
	var err error
	var parsed []*config.Config
	for _, k := range sortedKeys(patched) {
		var c *config.Config
		rec.in("replay.parse", op, parent, func(int) { c, err = config.Parse(k, patched[k]) })
		if err != nil {
			return err
		}
		parsed = append(parsed, c)
	}
	var n *topology.Network
	rec.in("replay.extract", op, parent, func(int) { n, err = config.Extract(parsed) })
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var tcs []topology.TrafficClass
	for _, p := range res.Repaired {
		src, dst := n.Subnet(p.TC.Src.Name), n.Subnet(p.TC.Dst.Name)
		if src == nil || dst == nil {
			return fmt.Errorf("replay: policy %s names a subnet the patched text lost", p)
		}
		tc := topology.TrafficClass{Src: src, Dst: dst}
		if !seen[tc.Key()] {
			seen[tc.Key()] = true
			tcs = append(tcs, tc)
		}
	}
	var lh *harc.HARC
	rec.in("replay.harc_lite", op, parent, func(int) { lh = harc.BuildLite(n, tcs) })
	var got *harc.State
	rec.in("replay.state_of", op, parent, func(int) { got = harc.StateOf(lh) })
	for k, v := range got.Cost {
		if res.State.Cost[k] != v {
			return fmt.Errorf("replay: cost of %s is %d in the patched text, %d in the verified state", k, v, res.State.Cost[k])
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// batchRun carries one batch workload run's state.
type batchRun struct {
	w      *workload
	rc     runConfig
	res    *result
	ins    []*input
	first  []*firstOutput // per input, set by the warm-up round
	rec    *recorder      // nil with tracing off
	nextOp int
}

// firstOutput pins an input's first (checked) output; every later op on
// that input must reproduce it byte for byte.
type firstOutput struct {
	patchedKey string
	lines      int
}

// runBatch drives a batch workload: repeated set-up, one checked
// warm-up round, then timed rounds until -seconds have passed.
func runBatch(w *workload, rc runConfig) (*result, error) {
	b := &batchRun{w: w, rc: rc, res: newResult(w.name, rc)}
	if rc.trace {
		b.rec = newRecorder()
	}
	if err := b.setup(); err != nil {
		return nil, err
	}
	b.first = make([]*firstOutput, len(b.ins))

	// Warm-up: every distinct input once, cold, with the full check.
	var warm []float64
	for i := range b.ins {
		ms, o := b.timedOp(apiOp, nil, i)
		if o == nil {
			continue
		}
		warm = append(warm, ms)
		for _, problem := range checkOutput(w, b.ins[i], o) {
			b.res.fail("%s: %s", b.ins[i].name, problem)
		}
		b.first[i] = &firstOutput{patchedKey: cpr.ContentKey(o.out.PatchedConfigs), lines: o.out.Plan.NumLines()}
	}
	if b.res.Failed > 0 {
		return b.res, nil
	}
	var patchLines int
	for _, f := range b.first {
		patchLines += f.lines
	}

	if rc.trace {
		b.tracedRounds(sum(warm))
	} else {
		b.timedRounds()
	}
	b.res.set("patch_lines", float64(patchLines), len(b.first))
	b.res.set(failedShare.Name, float64(b.res.Failed)/float64(b.res.Attempted), b.res.Attempted)
	return b.res, nil
}

// setup generates and prints the inputs. With tracing off it does so
// repeatedly and reports the median of the quiet half, so that setup_s
// is steady enough to show work a later change moves out of the timed
// region.
func (b *batchRun) setup() error {
	var err error
	draw := func() { b.ins, err = b.w.textInputs(b.rc.seed) }
	if b.rc.trace {
		draw()
		return err
	}
	s, n := timeSetup(draw)
	b.res.set("setup_s", s, n)
	return err
}

// timedOp runs one op on input i between two collections, so that each
// op starts from the same heap and none pays for its predecessor's
// garbage; the collections are outside the timed interval. It returns
// the op's time in ms; a failed op is recorded and returns a nil output.
func (b *batchRun) timedOp(run func(*recorder, int, *input) (*opOutput, error), rec *recorder, i int) (float64, *opOutput) {
	runtime.GC()
	b.nextOp++
	b.res.Attempted++
	t0 := time.Now()
	o, err := run(rec, b.nextOp, b.ins[i])
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	switch {
	case err != nil:
		b.res.fail("%s: %v", b.ins[i].name, err)
		return ms, nil
	case !o.out.Solved() || o.out.Plan == nil:
		b.res.fail("%s: repair not solved (degraded=%d failed=%d)", b.ins[i].name, o.out.Result.Degraded, o.out.Result.Failed)
		return ms, nil
	}
	if f := b.first[i]; f != nil {
		if key := cpr.ContentKey(o.out.PatchedConfigs); key != f.patchedKey || o.out.Plan.NumLines() != f.lines {
			b.res.fail("%s: output differs from the input's first op (%d lines, was %d)", b.ins[i].name, o.out.Plan.NumLines(), f.lines)
			return ms, nil
		}
	}
	return ms, o
}

// roundsDone reports whether the timed region may end: -seconds have
// passed and the workload's minimum sample is in.
func (b *batchRun) roundsDone(start time.Time, rounds, min int) bool {
	return rounds >= min && time.Since(start) >= time.Duration(b.rc.seconds)*time.Second
}

// timedRounds is the end-to-end measurement, tracing off. The
// allocation kernel (see reference.go) runs before the first round and
// after each, and a round's op times are restated by the two runs around
// it, so no round needs culling: what the host did to it is taken out.
func (b *batchRun) timedRounds() {
	var rounds [][]float64 // per round, each input's restated op time in ms
	var raw []float64      // every op's time as the clock read it
	refs := []float64{allocKernel()}
	var m0, m1, k0, k1 runtime.MemStats
	var kernelAlloc uint64
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for !b.roundsDone(start, len(rounds), b.w.minRounds) {
		round := make([]float64, 0, len(b.ins))
		for i := range b.ins {
			ms, o := b.timedOp(apiOp, nil, i)
			if o == nil {
				return // a failed op is recorded; the run is void
			}
			round = append(round, ms)
		}
		runtime.ReadMemStats(&k0)
		refs = append(refs, allocKernel())
		runtime.ReadMemStats(&k1)
		kernelAlloc += k1.TotalAlloc - k0.TotalAlloc
		slowdown := (refs[len(refs)-2] + refs[len(refs)-1]) / 2 / allocNominalMS
		for i, ms := range round {
			raw = append(raw, ms)
			round[i] = ms / slowdown
		}
		rounds = append(rounds, round)
	}
	runtime.ReadMemStats(&m1)
	timed := len(rounds) * len(b.ins)
	kept := fmt.Sprintf("over %d rounds, each restated at the allocation kernel's nominal %d ms", len(rounds), allocNominalMS)
	b.res.set(refP50.Name, median(refs), len(refs))
	b.res.set(rawP50.Name, median(raw), len(raw))

	// Latency percentiles are taken over one typical pass: each input's
	// median op. Over the raw ops of a heterogeneous pass the median falls
	// between two networks' clusters and jumps from one to the other run
	// to run. On a single-input workload the typical pass is the ops
	// themselves.
	var sample, all []float64
	for _, round := range rounds {
		all = append(all, round...)
	}
	if len(b.ins) == 1 {
		sample = all
	} else {
		for i := range b.ins {
			var xs []float64
			for _, round := range rounds {
				xs = append(xs, round[i])
			}
			sample = append(sample, median(xs))
		}
	}
	b.res.set("op_ms_p50", median(sample), len(all))
	b.res.note("op_ms_p50", kept)
	for _, t := range []struct {
		name string
		want float64
	}{{"op_ms_p95", 0.95}, {"op_ms_p99", 0.99}} {
		p := tailPercentile(timed, t.want)
		b.res.set(t.name, percentile(sample, p), len(all))
		if p != t.want {
			b.res.note(t.name, fmt.Sprintf("reported at p%.0f: fewer than %d of the %d timed ops lie beyond p%.0f", p*100, minBeyond, timed, t.want*100))
		}
	}
	// Timed wall is the ops' own time: the collections between them are
	// the harness's, not the pipeline's.
	b.res.set("ops_per_s", float64(len(all))/(sum(all)/1000), len(all))
	b.res.note("ops_per_s", kept)
	b.res.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc-kernelAlloc)/1e6/float64(timed), timed)
	rss, err := peakRSSMB()
	if err != nil {
		b.res.fail("peak RSS: %v", err)
		return
	}
	b.res.set("peak_rss_mb", rss, 0)
}

// checkOutput is the correctness check every input's first op gets,
// independent of the SMT path that produced the repair: the patched
// text is re-parsed and the whole specification re-verified on the
// graph abstraction it describes; on small networks each originally
// violated policy is also replayed hop by hop under link failures; and
// the counts are compared with the pinned golden values.
func checkOutput(w *workload, in *input, o *opOutput) []string {
	var problems []string
	n, err := extractText(o.out.PatchedConfigs)
	if err != nil {
		return []string{fmt.Sprintf("patched configs do not load: %v", err)}
	}
	policies, err := policy.Parse(n, in.spec)
	if err != nil {
		return []string{fmt.Sprintf("specification does not parse against the patched network: %v", err)}
	}
	if bad := policy.Violations(harc.Build(n), policies); len(bad) != 0 {
		problems = append(problems, fmt.Sprintf("patched network violates %d policies (first: %s)", len(bad), bad[0]))
	}
	if w.simReplay {
		diverged, err := replayViolated(n, in, o)
		if err != nil {
			return []string{fmt.Sprintf("simulator replay: %v", err)}
		}
		for _, d := range diverged {
			if slices.Contains(golden.SimDivergences, divergenceKey(w, in, d.policy)) {
				fmt.Fprintf(os.Stderr, "known defect (pinned in %s): %s: simulator replay: %s\n", goldenPath, in.name, d.detail)
				continue
			}
			problems = append(problems, "simulator replay: "+d.detail)
		}
	}
	got := goldenInput{
		Policies: len(o.policies), Violated: len(o.violated),
		Changes: o.out.Result.Changes, PatchLines: o.out.Plan.NumLines(),
	}
	want, ok := golden.Inputs[w.name+"/"+in.name]
	switch {
	case !ok:
		problems = append(problems, "no golden entry (run -update-golden)")
	case got != want:
		problems = append(problems, fmt.Sprintf("golden mismatch: got %+v, pinned %+v", got, want))
	}
	return problems
}

// extractText parses configuration texts in label order and extracts
// the network they describe, as a fresh load of those texts would.
func extractText(texts map[string]string) (*topology.Network, error) {
	var parsed []*config.Config
	for _, k := range sortedKeys(texts) {
		c, err := config.Parse(k, texts[k])
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, c)
	}
	return config.Extract(parsed)
}
