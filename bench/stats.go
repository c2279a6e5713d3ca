package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// xs — at p = 0.5 the median proper, so that a tail metric that falls
// back to p50 equals the p50 metric; 0 for an empty slice. xs is not
// modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p == 0.5 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailSteps are the percentiles a tail metric may be reported at,
// highest first.
var tailSteps = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the value is set by a handful of outliers and
// does not repeat.
const minBeyond = 10

// tailPercentile picks the percentile a tail metric is reported at: the
// highest step that does not exceed want and still has at least
// minBeyond of the n samples beyond it, or the median when none has.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailSteps {
		if p <= want && (1-p)*float64(n) >= minBeyond {
			return p
		}
	}
	return 0.50
}

// quietHalf rejects interference where no yardstick is at hand (the
// set-up timing, the traced run's serve-mix rows). Rounds of one
// workload do identical work, so what separates a slow round from a
// fast one is the machine — a neighbour's burst on a shared host, a
// descheduled core — not the program: such a figure is taken over the
// faster half of the rounds (rounded up), ranked by cost. A change that
// slows the program slows every round and still shows; what this gives
// up is sensitivity to a change that makes only some rounds slow.
func quietHalf[R any](rounds []R, cost func(R) float64) []R {
	ranked := append([]R(nil), rounds...)
	sort.SliceStable(ranked, func(a, b int) bool { return cost(ranked[a]) < cost(ranked[b]) })
	return ranked[:(len(ranked)+1)/2]
}

// timeSetup runs a workload's set-up repeatedly — at least three times,
// then until a second has gone by — and returns the median of the quiet
// half in seconds, with the number of repetitions.
func timeSetup(setup func()) (seconds float64, reps int) {
	var times []float64
	for start := time.Now(); len(times) < 3 || time.Since(start) < time.Second; {
		t0 := time.Now()
		setup()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(quietHalf(times, func(x float64) float64 { return x })), len(times)
}

// parseVmHWM extracts the peak resident set size, in MB, from the text
// of /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("bench: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bench: malformed VmHWM line %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("bench: no VmHWM line in process status")
}

// peakRSSMB reads this process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// cpuSeconds returns this process's user and system CPU time so far.
func cpuSeconds() (user, sys float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), nil
}
