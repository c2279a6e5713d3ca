// Package server implements cprd, the control-plane-repair daemon: a
// concurrent HTTP/JSON front end over the cpr package that loads
// configuration sets once into an LRU session cache (content-hash keyed,
// with single-flight deduplication of identical loads) and then answers
// verify/explain/repair queries against the cached model.
//
// Robustness primitives, in service of the "load once, query many times
// under deadlines" workload shape of production repair services:
//
//   - a bounded worker pool with an admission queue that sheds excess
//     repair load with HTTP 429 instead of accepting unbounded work;
//   - per-request deadlines (client-supplied timeout_ms, capped) whose
//     cancellation propagates through core.RepairCtx and the MaxSAT
//     driver into the CDCL solver's search loop, so abandoned requests
//     stop burning CPU;
//   - GET /healthz and GET /statsz for liveness and operational
//     visibility (cache traffic, solves in flight/completed/cancelled,
//     SAT conflict totals, per-endpoint latency histograms).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	cpr "repro"
	"repro/internal/core"
	"repro/internal/faultinject"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	// MaxSessions is the LRU session-cache capacity (default 64).
	MaxSessions int
	// Workers bounds concurrent repair solves (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds repair requests waiting for a worker beyond the
	// running ones; further requests get 429 (default 2×Workers; negative
	// means no queue at all).
	QueueDepth int
	// DefaultTimeout applies to requests without timeout_ms (default 5m).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-supplied timeouts (default 30m).
	MaxTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Minute
	}
	return c
}

// Server is the cprd HTTP handler set. Create with New; serve via
// Handler.
type Server struct {
	cfg   Config
	cache *sessionCache
	pool  *workerPool
	stats *stats
	mux   *http.ServeMux

	// draining flips /readyz to 503 as soon as graceful shutdown begins,
	// so load balancers and the fleet front tier stop routing new work
	// here while in-flight requests finish.
	draining atomic.Bool
}

// gcPercent is the collector target a server runs at unless GOGC is set
// in its environment. Between requests cprd's live heap is small (the
// cached sessions and their solve-cache answers, a few MB) while every
// request allocates its pipeline afresh, so at the runtime's default of
// 100 the collector runs every few dozen small requests. On the serve-mix
// load (2-core host), op_ms_p95 at 100 read 1.5× and at 200 1.16× what it
// reads at 400 (DESIGN.md §6, "The cache keeps answers; the server paces
// its collector"). A memory limit (debug.SetMemoryLimit) can only make
// collection more frequent, so it cannot do this.
const gcPercent = 400

// New builds a Server with the given configuration. It sets the
// collector target to gcPercent when GOGC is unset.
func New(cfg Config) *Server {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newSessionCache(cfg.MaxSessions),
		pool:  newWorkerPool(cfg.Workers, cfg.QueueDepth),
		stats: newStats(),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/load", s.instrument("/v1/load", s.handleLoad))
	s.mux.HandleFunc("POST /v1/delta", s.instrument("/v1/delta", s.handleDelta))
	s.mux.HandleFunc("POST /v1/verify", s.instrument("/v1/verify", s.handleVerify))
	s.mux.HandleFunc("POST /v1/explain", s.instrument("/v1/explain", s.handleExplain))
	s.mux.HandleFunc("POST /v1/repair", s.instrument("/v1/repair", s.handleRepair))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.stats.observeLatency(name, time.Since(t0))
	}
}

// --- JSON plumbing ---

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	// One JSON value per request: trailing garbage (a second object, a
	// stray token) means the client composed the body wrong, and the part
	// we did decode may not mean what they think.
	if dec.More() {
		writeError(w, http.StatusBadRequest, "bad request body: unexpected data after JSON value")
		return false
	}
	return true
}

// session resolves a session reference, answering 404 on a miss (the
// entry may also have been evicted — the client re-loads either way).
func (s *Server) session(w http.ResponseWriter, key string) (*cpr.Session, bool) {
	if key == "" {
		writeError(w, http.StatusBadRequest, "missing session")
		return nil, false
	}
	sess, ok := s.cache.get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q (expired or never loaded)", key)
		return nil, false
	}
	return sess, true
}

// deadline derives the request context: client timeout_ms if given
// (capped at MaxTimeout), DefaultTimeout otherwise. The base context is
// the HTTP request's, so a disconnecting client also cancels the work.
func (s *Server) deadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// --- /v1/load ---

// LoadRequest is the POST /v1/load body.
type LoadRequest struct {
	// Configs maps device labels to configuration text.
	Configs map[string]string `json:"configs"`
}

// LoadResponse is the POST /v1/load reply.
type LoadResponse struct {
	// Session identifies the cached system in later requests; it is the
	// content hash of the configuration set.
	Session string `json:"session"`
	// Cached reports that the load was answered without building (cache
	// hit or coalesced onto an in-flight identical load).
	Cached         bool `json:"cached"`
	Devices        int  `json:"devices"`
	Subnets        int  `json:"subnets"`
	Links          int  `json:"links"`
	TrafficClasses int  `json:"traffic_classes"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "no configs given")
		return
	}
	key := SessionKey(req.Configs)
	sess, how, err := s.cache.getOrLoad(key, func() (*cpr.Session, error) {
		if err := faultinject.Eval(faultinject.ServerCacheLoadError); err != nil {
			return nil, err
		}
		return cpr.NewSession(req.Configs)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "load: %v", err)
		return
	}
	s.stats.recordLoad(how)
	writeJSON(w, http.StatusOK, loadResponseFor(key, how, sess))
}

func loadResponseFor(key string, how loadOutcome, sess *cpr.Session) LoadResponse {
	n := sess.System().Network
	return LoadResponse{
		Session:        key,
		Cached:         how != loadBuilt,
		Devices:        n.NumDevices(),
		Subnets:        len(n.Subnets),
		Links:          len(n.Links),
		TrafficClasses: len(n.TrafficClasses()),
	}
}

// --- /v1/delta ---

// DeltaRequest is the POST /v1/delta body: a config change relative to
// an already-loaded session. Configs maps changed labels to their new
// text; an empty string removes the label. Unchanged labels are not
// re-sent and not re-parsed.
type DeltaRequest struct {
	Session string            `json:"session"`
	Configs map[string]string `json:"configs"`
}

// DeltaResponse is the POST /v1/delta reply. Session identifies the
// resulting config set (use it in subsequent verify/repair requests);
// it equals what /v1/load would return for the full patched set.
type DeltaResponse struct {
	Session string `json:"session"`
	// Cached reports the resulting session was already in the cache (the
	// delta produced a previously seen config set, e.g. a revert).
	Cached         bool `json:"cached"`
	Devices        int  `json:"devices"`
	Subnets        int  `json:"subnets"`
	Links          int  `json:"links"`
	TrafficClasses int  `json:"traffic_classes"`
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	var req DeltaRequest
	if !decodeBody(w, r, &req) {
		return
	}
	base, ok := s.session(w, req.Session)
	if !ok {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "no config changes given")
		return
	}
	key := base.DeltaKey(req.Configs)
	sess, how, err := s.cache.getOrLoad(key, func() (*cpr.Session, error) {
		if err := faultinject.Eval(faultinject.ServerDeltaError); err != nil {
			return nil, err
		}
		return base.Delta(req.Configs)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "delta: %v", err)
		return
	}
	s.stats.recordDelta(how)
	lr := loadResponseFor(key, how, sess)
	writeJSON(w, http.StatusOK, DeltaResponse{
		Session:        lr.Session,
		Cached:         lr.Cached,
		Devices:        lr.Devices,
		Subnets:        lr.Subnets,
		Links:          lr.Links,
		TrafficClasses: lr.TrafficClasses,
	})
}

// --- /v1/verify and /v1/explain ---

// VerifyRequest is the POST /v1/verify (and /v1/explain) body.
type VerifyRequest struct {
	Session string `json:"session"`
	// Policies is a policy specification in the cpr grammar (one policy
	// per line); empty means "infer PC1/PC3 policies first".
	Policies  string `json:"policies"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// VerifyResponse is the POST /v1/verify reply.
type VerifyResponse struct {
	Total    int      `json:"total"`
	Violated []string `json:"violated"`
}

// parsePolicies resolves the request's policy set: the parsed
// specification, or the inferred one when the spec is empty.
func parsePolicies(w http.ResponseWriter, sys *cpr.System, spec string) ([]cpr.Policy, bool) {
	if spec == "" {
		return sys.InferPolicies(), true
	}
	policies, err := sys.ParsePolicies(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "policies: %v", err)
		return nil, false
	}
	return policies, true
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Session)
	if !ok {
		return
	}
	sys := sess.System()
	policies, ok := parsePolicies(w, sys, req.Policies)
	if !ok {
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()
	violated, err := sys.VerifyCtx(ctx, policies)
	if err != nil {
		writeError(w, http.StatusGatewayTimeout, "verify: %v", err)
		return
	}
	resp := VerifyResponse{Total: len(policies), Violated: make([]string, 0, len(violated))}
	for _, p := range violated {
		resp.Violated = append(resp.Violated, p.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// ExplainResponse is the POST /v1/explain reply: one counterexample line
// per violated policy.
type ExplainResponse struct {
	Explanations []string `json:"explanations"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Session)
	if !ok {
		return
	}
	sys := sess.System()
	policies, ok := parsePolicies(w, sys, req.Policies)
	if !ok {
		return
	}
	lines := sys.Explain(policies)
	if lines == nil {
		lines = []string{}
	}
	writeJSON(w, http.StatusOK, ExplainResponse{Explanations: lines})
}

// --- /v1/repair ---

// RepairRequest is the POST /v1/repair body.
type RepairRequest struct {
	Session  string `json:"session"`
	Policies string `json:"policies"`
	// Options uses the same spellings as the cpr CLI flags.
	Options cpr.OptionFlags `json:"options"`
	// TimeoutMS is the request deadline; exceeding it cancels the solve
	// (HTTP 504).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RepairProblem is one MaxSMT sub-problem's outcome in a RepairResponse.
type RepairProblem struct {
	Label  string `json:"label"`
	Status string `json:"status"`
	// Outcome is the sub-problem's disposition: "solved", "degraded"
	// (greedy fallback), or "failed".
	Outcome string `json:"outcome"`
	// Attempts counts solve attempts (retries included; 0 = cancelled
	// before starting).
	Attempts int `json:"attempts"`
	// Fallback names the degradation provenance ("greedy") when the
	// outcome is degraded.
	Fallback string `json:"fallback,omitempty"`
	// Error describes the terminal solver failure, when there was one.
	Error      string  `json:"error,omitempty"`
	TCs        int     `json:"traffic_classes"`
	Policies   int     `json:"policies"`
	Vars       int     `json:"vars"`
	Softs      int     `json:"softs"`
	Violations int     `json:"violations"`
	Conflicts  int64   `json:"conflicts"`
	DurationMS float64 `json:"duration_ms"`
	// Compressed reports that the sub-problem was solved on a
	// symmetry-compressed quotient network and the concretized patch
	// re-verified on the full network.
	Compressed bool `json:"compressed,omitempty"`
	// Reused reports that the sub-problem's result was replayed from the
	// session's solve cache instead of re-solved; the solver counters are
	// the original solve's, which a fresh solve would reproduce.
	Reused bool `json:"reused,omitempty"`
	// QuotientDevices/DeviceClasses/CompressRatio describe the quotient
	// when Compressed is set; CompressFallback names the stage at which
	// compression was abandoned for this sub-problem, when it was tried
	// and fell back to the uncompressed path.
	QuotientDevices  int     `json:"quotient_devices,omitempty"`
	DeviceClasses    int     `json:"device_classes,omitempty"`
	CompressRatio    float64 `json:"compress_ratio,omitempty"`
	CompressFallback string  `json:"compress_fallback,omitempty"`
	// Per-stage wall-clock breakdown (milliseconds): HARC/quotient
	// construction, MaxSMT encode, SAT solve, patch concretization, and
	// post-patch re-verification. Stages a sub-problem never entered are
	// omitted.
	HarcBuildMS  float64 `json:"harc_build_ms,omitempty"`
	EncodeMS     float64 `json:"encode_ms,omitempty"`
	SolveMS      float64 `json:"solve_ms,omitempty"`
	ConcretizeMS float64 `json:"concretize_ms,omitempty"`
	ReverifyMS   float64 `json:"reverify_ms,omitempty"`
}

// RepairResponse is the POST /v1/repair reply.
type RepairResponse struct {
	Solved bool `json:"solved"`
	// Degraded and Failed count per-destination sub-problems that fell
	// back to the greedy baseline or produced no repair; Solved is false
	// whenever either is nonzero, but the plan still patches every
	// solved and degraded destination.
	Degraded       int               `json:"degraded"`
	Failed         int               `json:"failed"`
	Changes        int               `json:"changes"`
	Lines          int               `json:"lines"`
	Plan           string            `json:"plan"`
	PatchedConfigs map[string]string `json:"patched_configs,omitempty"`
	Conflicts      int64             `json:"conflicts"`
	DurationMS     float64           `json:"duration_ms"`
	// Compressed counts sub-problems solved on symmetry-compressed
	// quotients; CompressFallbacks counts sub-problems where compression
	// was attempted but fell back to the uncompressed path.
	Compressed        int `json:"compressed,omitempty"`
	CompressFallbacks int `json:"compress_fallbacks,omitempty"`
	// Reused counts sub-problems replayed from the session's solve cache.
	Reused   int             `json:"reused,omitempty"`
	Problems []RepairProblem `json:"problems"`
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	// Chaos: model this replica crashing mid-request. Aborting the
	// handler tears down the connection without a response, which is what
	// a killed process looks like to the caller.
	if err := faultinject.Eval(faultinject.ServerRepairAbort); err != nil {
		panic(http.ErrAbortHandler)
	}
	var req RepairRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, ok := s.session(w, req.Session)
	if !ok {
		return
	}
	policies, ok := parsePolicies(w, sess.System(), req.Policies)
	if !ok {
		return
	}
	opts, err := req.Options.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "options: %v", err)
		return
	}
	ctx, cancel := s.deadline(r, req.TimeoutMS)
	defer cancel()

	var (
		out  *cpr.RepairOutput
		rerr error
	)
	perr := s.pool.do(ctx, func() {
		s.stats.solveStarted()
		out, rerr = sess.RepairCtx(ctx, policies, opts)
		var res *core.Result
		if rerr == nil {
			res = out.Result
		}
		s.stats.repairFinished(res, errors.Is(rerr, context.DeadlineExceeded) || errors.Is(rerr, context.Canceled))
	})
	if perr != nil {
		if errors.Is(perr, errSaturated) {
			s.stats.solveRejected()
			// Hint when a slot should actually free up: queue depth times
			// the median solve latency, spread across the workers, with
			// per-key jitter so shed clients don't retry in lockstep.
			retry := s.stats.retryAfterSeconds(s.pool.waiting(), s.cfg.Workers, req.Session)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests, "repair queue full (workers=%d queue=%d)", s.cfg.Workers, s.cfg.QueueDepth)
			return
		}
		// Deadline expired while queued: the solve never started, but the
		// request was cancelled all the same.
		s.stats.solveCancelledQueued()
		writeError(w, http.StatusGatewayTimeout, "repair: %v", perr)
		return
	}
	if rerr != nil {
		if errors.Is(rerr, context.DeadlineExceeded) || errors.Is(rerr, context.Canceled) {
			writeError(w, http.StatusGatewayTimeout, "repair: %v", rerr)
			return
		}
		writeError(w, http.StatusBadRequest, "repair: %v", rerr)
		return
	}

	resp := RepairResponse{
		Solved:            out.Solved(),
		Degraded:          out.Result.Degraded,
		Failed:            out.Result.Failed,
		Changes:           out.Result.Changes,
		Conflicts:         out.Result.Conflicts,
		DurationMS:        float64(out.Result.Duration) / float64(time.Millisecond),
		PatchedConfigs:    out.PatchedConfigs,
		Compressed:        out.Result.Compressed,
		CompressFallbacks: out.Result.CompressFallbacks,
		Reused:            out.Result.Reused,
		Problems:          make([]RepairProblem, 0, len(out.Result.Stats)),
	}
	if out.Plan != nil {
		resp.Plan = out.Plan.String()
		resp.Lines = out.Plan.NumLines()
	}
	for _, st := range out.Result.Stats {
		resp.Problems = append(resp.Problems, RepairProblem{
			Label:      st.Label,
			Status:     st.Status.String(),
			Outcome:    st.Outcome.String(),
			Attempts:   st.Attempts,
			Fallback:   st.Fallback,
			Error:      st.Err,
			TCs:        st.TCs,
			Policies:   st.Policies,
			Vars:       st.Vars,
			Softs:      st.Softs,
			Violations: st.Violations,
			Conflicts:  st.Conflicts,
			DurationMS: float64(st.Duration) / float64(time.Millisecond),

			Compressed:       st.Compressed,
			Reused:           st.Reused,
			QuotientDevices:  st.QuotientDevices,
			DeviceClasses:    st.DeviceClasses,
			CompressRatio:    st.CompressRatio,
			CompressFallback: st.CompressFallback,

			HarcBuildMS:  float64(st.HarcBuildNs) / 1e6,
			EncodeMS:     float64(st.EncodeNs) / 1e6,
			SolveMS:      float64(st.SolveNs) / 1e6,
			ConcretizeMS: float64(st.ConcretizeNs) / 1e6,
			ReverifyMS:   float64(st.ReverifyNs) / 1e6,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- /healthz and /statsz ---

// Healthz is the GET /healthz reply.
type Healthz struct {
	OK            bool    `json:"ok"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Healthz{OK: true, UptimeSeconds: time.Since(s.stats.start).Seconds()})
}

// Readyz is the GET /readyz reply. Unlike /healthz (pure liveness),
// readiness is drain-aware: a draining daemon is alive but must not
// receive new work.
type Readyz struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Readyz{Ready: false, Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, Readyz{Ready: true})
}

// BeginDrain flips /readyz to 503. Call it when graceful shutdown
// starts, before the listener stops accepting, so balancers observe the
// transition while the daemon still answers probes. In-flight and even
// new requests are still served — drain only steers routing away.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stats.snapshot(s.cache.len(), s.cache.retained()))
}
