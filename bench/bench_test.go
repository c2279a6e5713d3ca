package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{n: 5, want: 0.95, got: 0.50},      // nothing qualifies: the median
		{n: 20, want: 0.99, got: 0.50},     // p50 has exactly 10 beyond it
		{n: 40, want: 0.95, got: 0.75},     // p75 leaves 10, p90 only 4
		{n: 144, want: 0.95, got: 0.90},    // p95 leaves 7.2
		{n: 144, want: 0.99, got: 0.90},    // never above what the count supports
		{n: 200, want: 0.95, got: 0.95},    // p95 leaves exactly 10
		{n: 200, want: 0.99, got: 0.95},    // p99 leaves 2
		{n: 1000, want: 0.99, got: 0.99},   // p99 leaves exactly 10
		{n: 100000, want: 0.95, got: 0.95}, // never above what was asked for
	} {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.got)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := median([]float64{4, 2}); got != 3 {
		t.Errorf("median of two = %v, want 3", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{9, 1, 7, 3, 5}) {
		t.Errorf("median reordered its argument: %v", xs)
	}
	for p, want := range map[float64]float64{0.5: 5, 0.2: 1, 0.21: 3, 0.99: 9, 1: 9} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestQuietHalf(t *testing.T) {
	id := func(x float64) float64 { return x }
	for _, c := range []struct{ in, want []float64 }{
		{[]float64{5, 1, 4, 2, 3}, []float64{1, 2, 3}}, // odd counts round up
		{[]float64{4, 1, 3, 2}, []float64{1, 2}},
		{[]float64{7}, []float64{7}},
		{nil, []float64{}},
	} {
		in := append([]float64(nil), c.in...)
		got := quietHalf(in, id)
		if len(got) != len(c.want) || (len(got) > 0 && !reflect.DeepEqual(got, c.want)) {
			t.Errorf("quietHalf(%v) = %v, want %v", c.in, got, c.want)
		}
		if !reflect.DeepEqual(in, c.in) {
			t.Errorf("quietHalf reordered its argument: %v", in)
		}
	}
}

func TestAtNominal(t *testing.T) {
	chunk := func(p50, rate float64) *fleet.Report {
		return &fleet.Report{Throughput: rate, All: fleet.OpStats{P50MS: p50}}
	}
	// The host runs at nominal speed, then twice as slow, then in between:
	// the program's own figures (0.1 ms, 8000/s) come back from each chunk.
	p := &loadPhase{
		reports: []*fleet.Report{chunk(0.1, 8000), chunk(0.2, 4000), chunk(0.15, 8000/1.5)},
		refs:    []float64{refNominalMS, refNominalMS, 3 * refNominalMS, 0},
	}
	near := func(got, want float64) bool { return got > want*0.999999 && got < want*1.000001 }
	if got := p.slowdown(1); !near(got, 2) {
		t.Errorf("slowdown between a nominal and a three-times-slow burst = %v, want 2", got)
	}
	if got := p.atNominal(func(r *fleet.Report) float64 { return r.All.P50MS }, false); !near(got, 0.1) {
		t.Errorf("restated p50 = %v, want 0.1", got)
	}
	if got := p.atNominal(func(r *fleet.Report) float64 { return r.Throughput }, true); !near(got, 8000) {
		t.Errorf("restated rate = %v, want 8000", got)
	}
}

func TestYardsticksRun(t *testing.T) {
	ref := startReference()
	defer ref.close()
	if ms, err := ref.burst(); err != nil || ms <= 0 {
		t.Errorf("burst = %v ms, %v", ms, err)
	}
	if ms := allocKernel(); ms <= 0 {
		t.Errorf("allocKernel = %v ms", ms)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		{Name: "adjacent-a", Parent: 0, Start: at(10), End: at(30)},
		{Name: "adjacent-b", Parent: 0, Start: at(30), End: at(50)},
		{Name: "nested", Parent: 2, Start: at(35), End: at(45)}, // grandchild: not root's to subtract
		{Name: "overlap-a", Parent: 0, Start: at(60), End: at(80)},
		{Name: "overlap-b", Parent: 0, Start: at(70), End: at(90)}, // counted once with overlap-a
		{Name: "other-root", Parent: -1, Start: at(100), End: at(120)},
	}
	want := []time.Duration{at(30), at(20), at(10), at(10), at(20), at(20), at(20)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got, want := largestGap(spans, 0), "10ms between the start of root and adjacent-a"; got != want {
		t.Errorf("largestGap(root) = %q, want %q", got, want)
	}
	if got, want := largestGap(spans, 2), "5ms between the start of adjacent-b and nested"; got != want {
		t.Errorf("largestGap(adjacent-b) = %q, want %q", got, want)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tbench\nVmPeak:\t 9000000 kB\nVmHWM:\t 3358720 kB\nVmRSS:\t  100 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 3280 {
		t.Errorf("parseVmHWM = %v, %v; want 3280 MB", got, err)
	}
	for _, bad := range []string{"Name:\tbench\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Errorf("peakRSSMB = %v, %v", mb, err)
	}
}

// allocSink keeps TestTraceJSON's allocation on the heap.
var allocSink []byte

func TestTraceJSON(t *testing.T) {
	rec := newRecorder()
	rec.in("op.layers", 7, -1, func(root int) {
		rec.in("config.parse", 7, root, func(int) { allocSink = make([]byte, 1<<16) })
	})
	b, err := traceJSON(rec.spans)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Tid  int
			Args struct {
				ID, Parent int
				AllocBytes uint64 `json:"alloc_bytes"`
			}
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	root, child := doc.TraceEvents[0], doc.TraceEvents[1]
	if root.Name != "op.layers" || root.Ph != "X" || root.Tid != 7 || root.Args.Parent != -1 {
		t.Errorf("root event = %+v", root)
	}
	if child.Name != "config.parse" || child.Args.Parent != root.Args.ID || child.Tid != 7 {
		t.Errorf("child event = %+v", child)
	}
	if child.Ts < root.Ts || child.Ts+child.Dur > root.Ts+root.Dur+1 {
		t.Errorf("child [%v+%v] not inside root [%v+%v]", child.Ts, child.Dur, root.Ts, root.Dur)
	}
	if child.Args.AllocBytes < 1<<16 {
		t.Errorf("child allocated %d bytes, want at least %d", child.Args.AllocBytes, 1<<16)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestMetricRegistryMatchesBenchmarkJSON(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{failedShare}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is not a well-formed name and unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Errorf("the first end-to-end metric must be setup_s in seconds, lower better; got %+v", endToEnd[0])
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the -seconds default is %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", file.Paths)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	same := func(kind string, listed []benchmarkMetric, declared []metricDef, bounded bool) {
		if len(listed) != len(declared) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program declares %d", kind, len(listed), len(declared))
			return
		}
		for i, d := range declared {
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program declares %+v", kind, i, l, d)
			}
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound > 0.25):
				t.Errorf("%s %s: bound in BENCHMARK.json %v, declared %v (at most 0.25)", kind, d.Name, l.Bound, d.Bound)
			case !bounded && l.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}

func TestSummaryLine(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := newResult("fattree-pc4", runConfig{seed: 1, seconds: 1, trace: trace})
		res.Attempted = 3
		res.set("op_ms_p50", 1.5, 3)
		res.set("sat.conflicts", 8856, 3)
		line, err := res.summaryLine()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.ContainsRune(line, '\n') {
			t.Errorf("summary spans lines: %s", line)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("summary keys = %v", keys)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: summary has %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, d := range want {
			m, ok := metrics[d.Name]
			if !ok || len(m) != 2 || m["unit"] != d.Unit {
				t.Errorf("trace=%v: summary metric %s = %v", trace, d.Name, m)
			}
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(p50, rate, conflicts float64) *resultSet {
		r := newResult("fattree-pc4", runConfig{})
		r.set("op_ms_p50", p50, 10)
		r.set("ops_per_s", rate, 10)
		r.set("sat.conflicts", conflicts, 10)
		r.set("core.repair_ms", p50*0.9, 10)
		return &resultSet{Workloads: map[string]*result{r.Workload: r}}
	}
	base := mk(100, 10, 8856)
	for _, c := range []struct {
		name  string
		other *resultSet
		agree bool
		want  string
	}{
		{"inside the bounds", mk(124, 7.6, 8856), true, ""},
		{"better is never a disagreement", mk(50, 20, 8856), true, ""},
		{"latency beyond its bound", mk(126, 10, 8856), false, "WORSE by 0.260"},
		{"throughput beyond its bound", mk(100, 7.4, 8856), false, "WORSE by 0.260"},
		{"an exact counter moved", mk(100, 10, 8857), false, "DIFFERS"},
		{"a workload is missing", &resultSet{Workloads: map[string]*result{}}, false, "MISSING in B"},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, base, c.other); got != c.agree {
			t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.agree, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
	// Ungated per-layer timings are shown but never decide.
	var out bytes.Buffer
	slowLayer := mk(100, 10, 8856)
	slowLayer.Workloads["fattree-pc4"].set("core.repair_ms", 500, 10)
	if !compareSets(&out, base, slowLayer) {
		t.Errorf("a per-layer timing decided the comparison:\n%s", out.String())
	}
}

func TestSeedRelabelsButNeverResizes(t *testing.T) {
	w := workloadByName("fattree-pc4")
	texts := func(seed int64) (labels, bodies []string, spec string) {
		ins, err := w.textInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(ins) != 1 {
			t.Fatalf("got %d inputs, want 1", len(ins))
		}
		for _, k := range sortedKeys(ins[0].configs) {
			labels = append(labels, k)
			bodies = append(bodies, ins[0].configs[k])
		}
		sort.Strings(bodies)
		return labels, bodies, ins[0].spec
	}
	l1, b1, s1 := texts(1)
	l1again, _, _ := texts(1)
	l2, b2, s2 := texts(2)
	if !reflect.DeepEqual(l1, l1again) {
		t.Error("the same seed labelled the configurations two ways")
	}
	if reflect.DeepEqual(l1, l2) {
		t.Error("two seeds labelled the configurations the same way")
	}
	if !reflect.DeepEqual(b1, b2) || s1 != s2 {
		t.Error("the seed changed configuration or specification text, not just labels")
	}
}

func TestInconsistentRepairs(t *testing.T) {
	a := "repair key=aaaaaaaaaaaaaaaa solved=true lines=2 plan=\"x\""
	b := "repair key=bbbbbbbbbbbbbbbb solved=true lines=3 plan=\"y\""
	if got := inconsistentRepairs([][]string{{a, "verify key=aaaa total=4", b}, {a, b}}); len(got) != 0 {
		t.Errorf("consistent trace reported %v", got)
	}
	changed := strings.Replace(a, "lines=2", "lines=4", 1)
	got := inconsistentRepairs([][]string{{a, b}, {changed}})
	if len(got) != 1 || !strings.Contains(got[0], "aaaaaaaaaaaa") {
		t.Errorf("inconsistent trace reported %v", got)
	}
}
