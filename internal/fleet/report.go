package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// OpStats summarizes one operation type's latency and error profile.
type OpStats struct {
	Op     string  `json:"op"`
	Count  int     `json:"count"`
	Errors int     `json:"errors"`
	Sheds  int     `json:"sheds"` // ops that saw >=1 429 before completing
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// Report is the SLO summary of one RunLoad invocation.
type Report struct {
	Target   string `json:"target"`
	Mix      string `json:"mix"`
	Seed     int64  `json:"seed"`
	Clients  int    `json:"clients"`
	Sessions int    `json:"sessions_per_client"`

	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	Sheds      int     `json:"sheds"`
	Reroutes   int     `json:"reroutes"` // 404 → session re-load retries
	ErrorRate  float64 `json:"error_rate"`
	ShedRate   float64 `json:"shed_rate"`
	WallMS     float64 `json:"wall_ms"`
	Throughput float64 `json:"requests_per_sec"`

	Ops []OpStats `json:"ops"`
	// All aggregates every op type into one latency profile.
	All OpStats `json:"all"`

	// PerReplica counts completed ops by serving replica (from the
	// X-Cpr-Replica header); SkewMaxOverMean is the load-balance figure:
	// 1.0 is perfect, and the e2e harness alerts above ~2.
	PerReplica      map[string]int `json:"per_replica,omitempty"`
	SkewMaxOverMean float64        `json:"skew_max_over_mean,omitempty"`
}

func buildReport(opts LoadOptions, clients []*loadClient, wall time.Duration) *Report {
	r := &Report{
		Target:     opts.Target,
		Mix:        opts.Mix,
		Seed:       opts.Seed,
		Clients:    opts.Clients,
		Sessions:   opts.Sessions,
		WallMS:     float64(wall.Milliseconds()),
		PerReplica: map[string]int{},
	}

	byOp := map[opKind][]sample{}
	var all []sample
	for _, lc := range clients {
		for _, s := range lc.samples {
			byOp[s.kind] = append(byOp[s.kind], s)
			all = append(all, s)
			r.Requests++
			if s.err != nil {
				r.Errors++
			}
			if s.shed {
				r.Sheds++
			}
			if s.reroute {
				r.Reroutes++
			}
			if s.replica != "" {
				r.PerReplica[s.replica]++
			}
		}
	}
	for _, kind := range []opKind{opVerify, opRepair, opDelta} {
		if ss := byOp[kind]; len(ss) > 0 {
			r.Ops = append(r.Ops, opStats(kind.String(), ss))
		}
	}
	r.All = opStats("all", all)
	if r.Requests > 0 {
		r.ErrorRate = float64(r.Errors) / float64(r.Requests)
		r.ShedRate = float64(r.Sheds) / float64(r.Requests)
	}
	if wall > 0 {
		r.Throughput = float64(r.Requests) / wall.Seconds()
	}
	if len(r.PerReplica) > 0 {
		total, max := 0, 0
		for _, c := range r.PerReplica {
			total += c
			if c > max {
				max = c
			}
		}
		mean := float64(total) / float64(len(r.PerReplica))
		if mean > 0 {
			r.SkewMaxOverMean = float64(max) / mean
		}
	}
	return r
}

func opStats(name string, ss []sample) OpStats {
	st := OpStats{Op: name, Count: len(ss)}
	durs := make([]float64, 0, len(ss))
	var sum float64
	for _, s := range ss {
		if s.err != nil {
			st.Errors++
		}
		if s.shed {
			st.Sheds++
		}
		ms := float64(s.dur) / float64(time.Millisecond)
		durs = append(durs, ms)
		sum += ms
	}
	sort.Float64s(durs)
	st.P50MS = percentile(durs, 0.50)
	st.P95MS = percentile(durs, 0.95)
	st.P99MS = percentile(durs, 0.99)
	if n := len(durs); n > 0 {
		st.MaxMS = durs[n-1]
		st.MeanMS = sum / float64(n)
	}
	return st
}

// percentile returns the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// String renders the report as the human-readable SLO summary cprload
// prints (and CI archives).
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cprload report: target=%s mix=%s seed=%d clients=%d sessions/client=%d\n",
		r.Target, r.Mix, r.Seed, r.Clients, r.Sessions)
	fmt.Fprintf(&b, "  requests=%d errors=%d (%.2f%%) sheds=%d (%.2f%%) reroutes=%d wall=%.0fms rate=%.1f req/s\n",
		r.Requests, r.Errors, 100*r.ErrorRate, r.Sheds, 100*r.ShedRate, r.Reroutes, r.WallMS, r.Throughput)
	rows := append([]OpStats{}, r.Ops...)
	rows = append(rows, r.All)
	for _, op := range rows {
		fmt.Fprintf(&b, "  %-7s n=%-5d err=%-3d shed=%-3d p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms mean=%.1fms\n",
			op.Op, op.Count, op.Errors, op.Sheds, op.P50MS, op.P95MS, op.P99MS, op.MaxMS, op.MeanMS)
	}
	if len(r.PerReplica) > 0 {
		names := make([]string, 0, len(r.PerReplica))
		for n := range r.PerReplica {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "  per-replica skew(max/mean)=%.2f:", r.SkewMaxOverMean)
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%d", n, r.PerReplica[n])
		}
		b.WriteString("\n")
	}
	return b.String()
}
