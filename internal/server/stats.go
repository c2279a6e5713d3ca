package server

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/smt/sat"
)

// latencyBucketsMS are the upper bounds (milliseconds, inclusive) of the
// per-endpoint latency histogram; observations beyond the last bound land
// in a +Inf overflow bucket.
var latencyBucketsMS = []float64{1, 5, 10, 50, 100, 500, 1000, 5000, 30000}

// histogram is a fixed-bucket latency histogram.
type histogram struct {
	Count   int64
	SumMS   float64
	Buckets []int64 // len(latencyBucketsMS)+1; last is overflow
}

func newHistogram() *histogram {
	return &histogram{Buckets: make([]int64, len(latencyBucketsMS)+1)}
}

func (h *histogram) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.Count++
	h.SumMS += ms
	for i, ub := range latencyBucketsMS {
		if ms <= ub {
			h.Buckets[i]++
			return
		}
	}
	h.Buckets[len(h.Buckets)-1]++
}

// stats aggregates the daemon's operational counters, reported by
// GET /statsz.
type stats struct {
	mu    sync.Mutex
	start time.Time
	// z accumulates the counters that are sums over requests, in the shape
	// /statsz reports them; snapshot fills in the rest.
	z         Statsz
	endpoints map[string]*histogram
}

func newStats() *stats {
	return &stats{start: time.Now(), endpoints: make(map[string]*histogram)}
}

func (st *stats) observeLatency(endpoint string, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	h, ok := st.endpoints[endpoint]
	if !ok {
		h = newHistogram()
		st.endpoints[endpoint] = h
	}
	h.observe(d)
}

// recordLoad accumulates one /v1/load call's cache disposition.
func (st *stats) recordLoad(how loadOutcome) {
	c := &st.z.Cache
	st.recordDisposition(how, &c.Builds, &c.Hits, &c.Coalesced)
}

// recordDelta accumulates one /v1/delta call's cache disposition.
func (st *stats) recordDelta(how loadOutcome) {
	c := &st.z.Cache
	st.recordDisposition(how, &c.DeltaBuilds, &c.DeltaHits, &c.DeltaCoalesced)
}

func (st *stats) recordDisposition(how loadOutcome, built, hit, coalesced *int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch how {
	case loadBuilt:
		*built++
	case loadHit:
		*hit++
	case loadCoalesced:
		*coalesced++
	}
}

func (st *stats) solveStarted() {
	st.mu.Lock()
	st.z.Solves.InFlight++
	st.mu.Unlock()
}

// repairFinished folds one repair that held a worker slot into the
// counters: res is its result, nil when the repair returned an error
// (cancelled: the error was its deadline or its client going away).
func (st *stats) repairFinished(res *core.Result, cancelled bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	z := &st.z
	z.Solves.InFlight--
	if cancelled {
		z.Solves.Cancelled++
	} else {
		z.Solves.Completed++
	}
	if res == nil {
		return
	}
	z.Solves.Conflicts += res.Conflicts
	z.Solver.Accumulate(res.Solver)
	d := &z.Destinations
	d.Solved += int64(len(res.Stats) - res.Failed)
	d.Failed += int64(res.Failed)
	d.Reused += int64(res.Reused)
	d.Compressed += int64(res.Compressed)
	d.CompressFallbacks += int64(res.CompressFallbacks)
	for _, p := range res.Stats {
		z.Stages.HarcBuildMS += float64(p.HarcBuildNs) / 1e6
		z.Stages.EncodeMS += float64(p.EncodeNs) / 1e6
		z.Stages.SolveMS += float64(p.SolveNs) / 1e6
		z.Stages.ConcretizeMS += float64(p.ConcretizeNs) / 1e6
		z.Stages.ReverifyMS += float64(p.ReverifyNs) / 1e6
	}
}

// solveCancelledQueued records a request whose deadline expired while it
// was still waiting for a worker slot (admitted but never started).
func (st *stats) solveCancelledQueued() {
	st.mu.Lock()
	st.z.Solves.Cancelled++
	st.mu.Unlock()
}

func (st *stats) solveRejected() {
	st.mu.Lock()
	st.z.Solves.Rejected++
	st.mu.Unlock()
}

// repairP50MS estimates the median /v1/repair latency from the endpoint
// histogram: the upper bound of the first bucket at or past half the
// observations. With no observations yet it assumes one second, a
// deliberately conservative guess for a solver-bound endpoint.
func (st *stats) repairP50MS() float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	h, ok := st.endpoints["/v1/repair"]
	if !ok || h.Count == 0 {
		return 1000
	}
	half := (h.Count + 1) / 2
	var cum int64
	for i, ub := range latencyBucketsMS {
		cum += h.Buckets[i]
		if cum >= half {
			return ub
		}
	}
	return latencyBucketsMS[len(latencyBucketsMS)-1]
}

// retryAfterSeconds derives a 429 Retry-After hint from the current
// queue depth and the median solve latency: roughly when a slot should
// free up for one more request, clamped to [1, 30] seconds. The hint
// carries ±20% jitter, deterministic in the request key, so a burst of
// shed clients spreads its retries instead of stampeding a recovering
// replica in lockstep — while any one client's retry schedule stays
// reproducible.
func (st *stats) retryAfterSeconds(waiting, workers int, key string) int {
	if workers < 1 {
		workers = 1
	}
	p50 := st.repairP50MS()
	ms := float64(waiting+1) * p50 / float64(workers) * retryJitter(key)
	secs := int((ms + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// retryJitter maps a request key to a factor in [0.8, 1.2]: FNV-1a over
// the key, scaled. The same key always jitters the same way.
func retryJitter(key string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return 0.8 + 0.4*float64(h%1000)/999
}

// EndpointStats is one endpoint's latency summary in the /statsz payload.
type EndpointStats struct {
	Count     int64            `json:"count"`
	SumMS     float64          `json:"sum_ms"`
	BucketsMS map[string]int64 `json:"buckets_ms"`
}

// Statsz is the GET /statsz response body.
type Statsz struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	SessionsCached int     `json:"sessions_cached"`
	Cache          struct {
		Builds    int64 `json:"builds"`
		Hits      int64 `json:"hits"`
		Coalesced int64 `json:"coalesced"`
		// Delta* are the same dispositions for /v1/delta: incremental
		// sessions built from a cached base vs. answered from the cache.
		DeltaBuilds    int64 `json:"delta_builds"`
		DeltaHits      int64 `json:"delta_hits"`
		DeltaCoalesced int64 `json:"delta_coalesced"`
	} `json:"cache"`
	// Retained is the solve-cache footprint of the cached sessions:
	// per-sub-problem entries and their approximate retained bytes, each
	// entry counted once however many sessions share it, plus replay
	// hit/miss counters summed per session. An entry keeps its answer, not
	// its solver, so Solvers is always 0; it stays for readers of the
	// field.
	Retained struct {
		Entries     int    `json:"entries"`
		Solvers     int    `json:"solvers"`
		Bytes       int64  `json:"bytes"`
		SolveHits   uint64 `json:"solve_hits"`
		SolveMisses uint64 `json:"solve_misses"`
		SolveStores uint64 `json:"solve_stores"`
	} `json:"retained"`
	Solves struct {
		InFlight  int   `json:"in_flight"`
		Completed int64 `json:"completed"`
		Cancelled int64 `json:"cancelled"`
		Rejected  int64 `json:"rejected"`
		Conflicts int64 `json:"conflicts"`
	} `json:"solves"`
	// Solver aggregates the SAT solver's internal counters across
	// completed solves, the core-guided MaxSAT driver's included.
	Solver sat.Stats `json:"solver"`
	// Destinations counts per-destination sub-problem outcomes, summed
	// across completed solves.
	Destinations struct {
		Solved int64 `json:"solved"`
		Failed int64 `json:"failed"`
		// Reused counts sub-problems replayed from a session's solve
		// cache instead of re-solved.
		Reused int64 `json:"reused"`
		// Compressed counts sub-problems solved on symmetry-compressed
		// quotient networks; CompressFallbacks counts sub-problems where
		// compression was attempted but abandoned.
		Compressed        int64 `json:"compressed"`
		CompressFallbacks int64 `json:"compress_fallbacks"`
	} `json:"destinations"`
	// Stages breaks repair wall-clock down by pipeline stage
	// (milliseconds summed across every sub-problem of every completed
	// solve).
	Stages struct {
		HarcBuildMS  float64 `json:"harc_build_ms"`
		EncodeMS     float64 `json:"encode_ms"`
		SolveMS      float64 `json:"solve_ms"`
		ConcretizeMS float64 `json:"concretize_ms"`
		ReverifyMS   float64 `json:"reverify_ms"`
	} `json:"stages"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

func (st *stats) snapshot(sessions int, retained core.SolveCacheStats) Statsz {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := st.z
	out.UptimeSeconds = time.Since(st.start).Seconds()
	out.SessionsCached = sessions
	out.Retained.Entries = retained.Entries
	out.Retained.Bytes = retained.RetainedBytes
	out.Retained.SolveHits = retained.Hits
	out.Retained.SolveMisses = retained.Misses
	out.Retained.SolveStores = retained.Stores
	out.Endpoints = make(map[string]EndpointStats, len(st.endpoints))
	for name, h := range st.endpoints {
		es := EndpointStats{Count: h.Count, SumMS: h.SumMS, BucketsMS: make(map[string]int64, len(h.Buckets))}
		for i, ub := range latencyBucketsMS {
			es.BucketsMS[le(ub)] = h.Buckets[i]
		}
		es.BucketsMS["+Inf"] = h.Buckets[len(h.Buckets)-1]
		out.Endpoints[name] = es
	}
	return out
}

func le(ub float64) string {
	return "le_" + strconv.FormatFloat(ub, 'f', -1, 64)
}
