package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	cpr "repro"
)

// Config is the front tier's deployment: which workers it routes to and
// how often it probes them. Everything else about the front is fixed
// (the constants below), because no setting of it changes an answer:
// any replica's answer equals the single node's.
type Config struct {
	// Replicas are the initial worker base URLs (e.g. http://host:8080).
	Replicas []string
	// ProbeInterval is the readiness-probe period (default 1s). The
	// ownership lease a passing probe grants is 3×ProbeInterval: a
	// replica whose lease expires un-renewed loses its ring ranges to the
	// successor — the forced-takeover clock for crashes, partitions, and
	// drains. One probe may take half the interval, and at least
	// minProbeTimeout.
	ProbeInterval time.Duration
}

const (
	// vnodes is the virtual-node count per replica on the hash ring:
	// enough for <10% imbalance across a handful of replicas while keeping
	// ring rebuilds (every membership change) cheap.
	vnodes = 64
	// retriesPerReplica is how many extra attempts a transport-level
	// failure earns on the same replica before failing over to the ring
	// successor.
	retriesPerReplica = 1
	// retryBackoff is the base backoff between same-replica retries,
	// doubled per attempt and jittered ±20% deterministically by request
	// key.
	retryBackoff = 25 * time.Millisecond
	// hedgeAfter launches a hedged attempt on the next candidate when the
	// current one has not answered within it; the first winning response
	// is relayed and the loser is cancelled.
	hedgeAfter = time.Second
	// sessionReplicas is how many ring candidates receive session-creating
	// requests (/v1/load, /v1/delta): the owner synchronously, the rest
	// replicated in the background so failover targets hold the session
	// warm.
	sessionReplicas = 2
	// maxBodyBytes caps forwarded request bodies.
	maxBodyBytes = 64 << 20
	// minProbeTimeout is the least time one readiness probe is given: a
	// loaded worker answers /readyz no faster because probes come more
	// often, and a timed-out probe marks a healthy replica down.
	minProbeTimeout = 500 * time.Millisecond
)

// probeTimeout bounds one probe round-trip: half the probe interval, at
// least minProbeTimeout.
func (c Config) probeTimeout() time.Duration {
	return max(c.ProbeInterval/2, minProbeTimeout)
}

// leaseTTL is the ownership lease granted by each passing probe.
func (c Config) leaseTTL() time.Duration { return 3 * c.ProbeInterval }

// requestKind partitions the proxied API by placement semantics.
type requestKind int

const (
	// kindQuery addresses an existing session (verify/explain/repair);
	// draining replicas still serve these while their lease lasts.
	kindQuery requestKind = iota
	// kindCreate places a new session (load/delta); never routed to a
	// draining replica.
	kindCreate
)

// ReplicaHeader is the response header naming the replica that answered
// a forwarded request; load generators use it to measure per-replica
// skew, and the failover tests to assert where a retry landed.
const ReplicaHeader = "X-Cpr-Replica"

var errNoReplica = errors.New("fleet: no eligible replica")

// routingStats aggregates the front tier's forwarding counters.
type routingStats struct {
	forwards     atomic.Int64 // requests relayed to a replica response
	failovers    atomic.Int64 // responses served by a non-primary candidate
	hedges       atomic.Int64 // hedged attempts launched
	retries      atomic.Int64 // same-replica retry attempts
	noReplica    atomic.Int64 // requests shed: no eligible candidate
	replications atomic.Int64 // background session replications issued
	replFailures atomic.Int64 // background replications that failed
}

// Front is the fleet's stateless routing tier. It holds no session
// state: routing is a pure function of the request's content address and
// the (probed) ring state, so any front instance — or a restarted one —
// routes identically.
type Front struct {
	cfg Config

	client      *http.Client // forwards
	probeClient *http.Client // readiness probes

	mu       sync.RWMutex
	replicas map[string]*replica
	ring     *Ring

	stats routingStats
	mux   *http.ServeMux

	draining atomic.Bool

	startOnce sync.Once
	started   atomic.Bool
	stopOnce  sync.Once
	stop      chan struct{}
	probeDone chan struct{}

	// Background session replication: cancelled and awaited on Close.
	replCtx    context.Context
	replCancel context.CancelFunc
	replWG     sync.WaitGroup
}

// New builds a Front over the configured replicas. Call Start to begin
// health probing and Close to release it. Replicas start Ready with one
// lease of optimism, so routing works before the first probe round
// corrects the picture.
func New(cfg Config) *Front {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	f := &Front{
		cfg:         cfg,
		client:      &http.Client{},
		probeClient: &http.Client{Timeout: cfg.probeTimeout()},
		replicas:    make(map[string]*replica),
		mux:         http.NewServeMux(),
		stop:        make(chan struct{}),
		probeDone:   make(chan struct{}),
	}
	f.replCtx, f.replCancel = context.WithCancel(context.Background())
	now := time.Now()
	for _, name := range cfg.Replicas {
		if name == "" || f.replicas[name] != nil {
			continue
		}
		f.replicas[name] = &replica{name: name, state: stateReady, leaseUntil: now.Add(cfg.leaseTTL())}
	}
	f.rebuildRingLocked()

	for _, path := range []string{"/v1/load", "/v1/delta", "/v1/verify", "/v1/explain", "/v1/repair"} {
		f.mux.HandleFunc("POST "+path, f.handleProxy)
	}
	f.mux.HandleFunc("GET /healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /fleetz", f.handleFleetz)
	f.mux.HandleFunc("POST /admin/replicas", f.handleAdminReplicas)
	return f
}

// Handler returns the front tier's HTTP handler.
func (f *Front) Handler() http.Handler { return f.mux }

// Start launches the background readiness-probe loop.
func (f *Front) Start() {
	f.startOnce.Do(func() {
		f.started.Store(true)
		go f.probeLoop()
	})
}

// Close stops probing, cancels in-flight background replications, and
// waits for both to wind down.
func (f *Front) Close() {
	f.stopOnce.Do(func() {
		close(f.stop)
	})
	if f.started.Load() {
		<-f.probeDone
	}
	f.replCancel()
	f.replWG.Wait()
	f.client.CloseIdleConnections()
	f.probeClient.CloseIdleConnections()
}

// BeginDrain flips the front's own /readyz to 503 (for stacked
// balancers); forwarding continues.
func (f *Front) BeginDrain() { f.draining.Store(true) }

// --- membership ---

// rebuildRingLocked recomputes the ring from the replica set; callers
// hold f.mu.
func (f *Front) rebuildRingLocked() {
	names := make([]string, 0, len(f.replicas))
	for name := range f.replicas {
		names = append(names, name)
	}
	sort.Strings(names)
	f.ring = NewRing(names)
}

// AddReplica joins a worker to the ring (scale-up). Existing sessions
// whose keys now hash to it will 404 there once — clients re-load, and
// the content address guarantees the reloaded session answers
// identically.
func (f *Front) AddReplica(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if name == "" || f.replicas[name] != nil {
		return
	}
	f.replicas[name] = &replica{name: name, state: stateReady, leaseUntil: time.Now().Add(f.cfg.leaseTTL())}
	f.rebuildRingLocked()
}

// DrainReplica begins graceful scale-down: the replica stops receiving
// new sessions immediately, keeps serving session queries while its
// lease lasts, and loses its ring ranges to the successor when the lease
// expires (probes no longer renew a draining replica's lease).
func (f *Front) DrainReplica(name string) bool {
	f.mu.RLock()
	rep := f.replicas[name]
	f.mu.RUnlock()
	if rep == nil {
		return false
	}
	rep.mu.Lock()
	rep.opDrain = true
	if rep.state != stateDown {
		rep.state = stateDraining
	}
	rep.mu.Unlock()
	return true
}

// RemoveReplica drops a worker from the ring entirely. Use after
// DrainReplica's lease has run out (or immediately for a dead replica).
func (f *Front) RemoveReplica(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.replicas[name] == nil {
		return false
	}
	delete(f.replicas, name)
	f.rebuildRingLocked()
	return true
}

// Replicas returns the current member names, sorted.
func (f *Front) Replicas() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.Members()
}

// Owner returns the ring owner for a session key — exported so tests
// and operators can predict placement (routing is a pure function of
// key and ring state).
func (f *Front) Owner(key string) string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.Owner(key)
}

// Candidates returns the failover order for a key (owner first).
func (f *Front) Candidates(key string) []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.Candidates(key, 0)
}

// --- probing ---

func (f *Front) probeLoop() {
	defer close(f.probeDone)
	ticker := time.NewTicker(f.cfg.ProbeInterval)
	defer ticker.Stop()
	// One immediate round so a freshly started front converges without
	// waiting a full interval.
	f.ProbeNow()
	for {
		select {
		case <-f.stop:
			return
		case <-ticker.C:
			f.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous probe round over every replica,
// renewing leases of ready ones. Exposed for tests that want
// deterministic convergence instead of sleeping.
func (f *Front) ProbeNow() {
	f.mu.RLock()
	reps := make([]*replica, 0, len(f.replicas))
	for _, rep := range f.replicas {
		reps = append(reps, rep)
	}
	f.mu.RUnlock()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			ready, draining, err := probeReplica(f.probeClient, rep.name)
			rep.observeProbe(ready, draining, err, f.cfg.leaseTTL(), time.Now())
		}(rep)
	}
	wg.Wait()
}

// --- routing ---

// candidatesFor resolves the eligible replicas for a key in failover
// order: ring order filtered by state and lease.
func (f *Front) candidatesFor(key string, kind requestKind) []*replica {
	f.mu.RLock()
	order := f.ring.Candidates(key, 0)
	reps := make([]*replica, 0, len(order))
	for _, name := range order {
		if rep := f.replicas[name]; rep != nil {
			reps = append(reps, rep)
		}
	}
	f.mu.RUnlock()
	now := time.Now()
	out := reps[:0]
	for _, rep := range reps {
		if rep.eligible(kind, now) {
			out = append(out, rep)
		}
	}
	return out
}

// proxyResult is one forwarded response (or terminal failure).
type proxyResult struct {
	status  int
	header  http.Header
	body    []byte
	replica string
	err     error
}

// attemptOnce issues one forwarded request to a replica and reads the
// full response.
func (f *Front) attemptOnce(ctx context.Context, rep *replica, path string, body []byte) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.name+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: data, replica: rep.name}, nil
}

// tryReplica runs the bounded retry loop against one replica: transport
// failures earn retriesPerReplica extra attempts with doubled,
// key-jittered backoff. The terminal transport failure marks the
// replica down (fail fast for subsequent requests) unless the attempt
// was cancelled because another candidate already won.
func (f *Front) tryReplica(ctx context.Context, rep *replica, path string, body []byte, key string) *proxyResult {
	var lastErr error
	for try := 0; try <= retriesPerReplica; try++ {
		if try > 0 {
			f.stats.retries.Add(1)
			backoff := time.Duration(float64(retryBackoff) * float64(int(1)<<(try-1)) * backoffJitter(key, try))
			select {
			case <-ctx.Done():
				return &proxyResult{replica: rep.name, err: ctx.Err()}
			case <-time.After(backoff):
			}
		}
		res, err := f.attemptOnce(ctx, rep, path, body)
		if err == nil {
			rep.forwards.Add(1)
			return res
		}
		lastErr = err
		if ctx.Err() != nil {
			// Cancelled or past deadline: not the replica's fault.
			return &proxyResult{replica: rep.name, err: ctx.Err()}
		}
	}
	rep.markDown(lastErr)
	return &proxyResult{replica: rep.name, err: lastErr}
}

// backoffJitter maps (key, attempt) to a deterministic factor in
// [0.8, 1.2]: the same request retries on the same schedule, different
// requests spread out.
func backoffJitter(key string, attempt int) float64 {
	h := hash64(fmt.Sprintf("%s#%d", key, attempt))
	return 0.8 + 0.4*float64(h%1000)/999
}

// retriableStatus reports response codes that mean "this replica cannot
// serve this right now, another might": a reverse proxy's bad gateway or
// a worker that began draining after the probe round.
func retriableStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable
}

// forward routes one request: candidates in ring order, bounded retries
// per candidate, hedged failover to the next candidate when the current
// one is slow, immediate failover when it is dead. The first winning
// response is relayed; losers are cancelled.
func (f *Front) forward(ctx context.Context, key string, kind requestKind, path string, body []byte) *proxyResult {
	cands := f.candidatesFor(key, kind)
	if len(cands) == 0 {
		f.stats.noReplica.Add(1)
		return &proxyResult{err: errNoReplica}
	}

	// A 404 is authoritative only from the replica a (re-)load of this key
	// would land on: the first create-eligible candidate. A draining
	// primary legitimately lacks sessions created after its drain began —
	// its 404 means "ask my successor", not "re-load".
	auth404 := cands[0].name
	now := time.Now()
	for _, rep := range cands {
		if rep.eligible(kindCreate, now) {
			auth404 = rep.name
			break
		}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan *proxyResult, len(cands))
	next, inFlight := 0, 0
	launch := func() {
		rep := cands[next]
		next++
		inFlight++
		go func() {
			results <- f.tryReplica(actx, rep, path, body, key)
		}()
	}
	launch()

	timer := time.NewTimer(hedgeAfter)
	defer timer.Stop()
	hedgeC := timer.C

	// fallback holds the best non-winning HTTP response (a successor's
	// 404, a drain 503): relayed only if nothing better arrives.
	var fallback *proxyResult
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return &proxyResult{err: ctx.Err()}
		case <-hedgeC:
			hedgeC = nil
			if next < len(cands) {
				f.stats.hedges.Add(1)
				launch()
				timer.Reset(hedgeAfter)
				hedgeC = timer.C
			}
		case res := <-results:
			inFlight--
			won := res.err == nil && !retriableStatus(res.status) &&
				// From anyone else a 404 is expected noise (a hedged
				// successor, a drained primary) and the next candidate may
				// still hold the session.
				!(res.status == http.StatusNotFound && res.replica != auth404)
			if won {
				f.stats.forwards.Add(1)
				if res.replica != cands[0].name {
					f.stats.failovers.Add(1)
				}
				return res
			}
			if res.err == nil && fallback == nil {
				fallback = res
			}
			if res.err != nil {
				lastErr = res.err
			}
			if next < len(cands) {
				launch()
				continue
			}
			if inFlight == 0 {
				if fallback != nil {
					f.stats.forwards.Add(1)
					if fallback.replica != cands[0].name {
						f.stats.failovers.Add(1)
					}
					return fallback
				}
				return &proxyResult{err: lastErr}
			}
		}
	}
}

// replicateCreate forwards a session-creating request to the next ring
// candidates in the background, so the owner's failover targets hold the
// session warm. Best-effort: failures only count in /fleetz.
func (f *Front) replicateCreate(key, path string, body []byte) {
	cands := f.candidatesFor(key, kindCreate)
	if len(cands) <= 1 {
		return
	}
	for _, rep := range cands[1:min(sessionReplicas, len(cands))] {
		f.replWG.Add(1)
		f.stats.replications.Add(1)
		go func(rep *replica) {
			defer f.replWG.Done()
			res := f.tryReplica(f.replCtx, rep, path, body, key)
			if res.err != nil || res.status != http.StatusOK {
				f.stats.replFailures.Add(1)
			}
		}(rep)
	}
}

// --- HTTP handlers ---

type frontError struct {
	Error string `json:"error"`
}

func writeFrontError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(frontError{Error: fmt.Sprintf(format, args...)})
}

func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeFrontError(w, http.StatusRequestEntityTooLarge, "request body: %v", err)
		return
	}
	// Peek just enough to route; full validation is the worker's job.
	var peek struct {
		Session string            `json:"session"`
		Configs map[string]string `json:"configs"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeFrontError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	kind := kindQuery
	key := peek.Session
	switch r.URL.Path {
	case "/v1/load":
		kind = kindCreate
		if len(peek.Configs) == 0 {
			writeFrontError(w, http.StatusBadRequest, "no configs given")
			return
		}
		// The routing key IS the session key the worker will answer with:
		// both are cpr.ContentKey of the config set.
		key = cpr.ContentKey(peek.Configs)
	case "/v1/delta":
		// Deltas are routed by the base session (only its holder can
		// derive incrementally) but place a new session, so they follow
		// create rules and skip draining replicas.
		kind = kindCreate
		fallthrough
	default:
		if key == "" {
			writeFrontError(w, http.StatusBadRequest, "missing session")
			return
		}
	}

	res := f.forward(r.Context(), key, kind, r.URL.Path, body)
	if res.err != nil {
		switch {
		case errors.Is(res.err, errNoReplica):
			w.Header().Set("Retry-After", "1")
			writeFrontError(w, http.StatusServiceUnavailable, "no eligible replica for key %.12s…", key)
		case errors.Is(res.err, context.DeadlineExceeded):
			writeFrontError(w, http.StatusGatewayTimeout, "fleet: %v", res.err)
		case errors.Is(res.err, context.Canceled):
			// Client went away; status is moot but pick one deliberately.
			writeFrontError(w, http.StatusGatewayTimeout, "fleet: %v", res.err)
		default:
			writeFrontError(w, http.StatusBadGateway, "every candidate failed: %v", res.err)
		}
		return
	}
	if kind == kindCreate && res.status == http.StatusOK {
		f.replicateCreate(key, r.URL.Path, body)
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(ReplicaHeader, res.replica)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"ok":true}` + "\n"))
}

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type readyz struct {
		Ready    bool `json:"ready"`
		Draining bool `json:"draining"`
		Eligible int  `json:"eligible_replicas"`
	}
	f.mu.RLock()
	reps := make([]*replica, 0, len(f.replicas))
	for _, rep := range f.replicas {
		reps = append(reps, rep)
	}
	f.mu.RUnlock()
	now := time.Now()
	eligible := 0
	for _, rep := range reps {
		if rep.eligible(kindQuery, now) {
			eligible++
		}
	}
	rz := readyz{Ready: !f.draining.Load() && eligible > 0, Draining: f.draining.Load(), Eligible: eligible}
	w.Header().Set("Content-Type", "application/json")
	if !rz.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(rz)
}

// ReplicaStatus is one replica's row in the /fleetz payload.
type ReplicaStatus struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	LeaseValid  bool    `json:"lease_valid"`
	LeaseLeftMS float64 `json:"lease_left_ms"`
	Forwards    int64   `json:"forwards"`
	Failures    int64   `json:"failures"`
	LastError   string  `json:"last_error,omitempty"`
}

// Fleetz is the GET /fleetz response: ring membership, per-replica
// state, and routing counters.
type Fleetz struct {
	Replicas []ReplicaStatus `json:"replicas"`
	VNodes   int             `json:"vnodes"`
	Routing  struct {
		Forwards            int64 `json:"forwards"`
		Failovers           int64 `json:"failovers"`
		Hedges              int64 `json:"hedges"`
		Retries             int64 `json:"retries"`
		NoReplica           int64 `json:"no_replica"`
		Replications        int64 `json:"replications"`
		ReplicationFailures int64 `json:"replication_failures"`
	} `json:"routing"`
}

// Status snapshots the fleet for /fleetz (and tests).
func (f *Front) Status() Fleetz {
	f.mu.RLock()
	names := f.ring.Members()
	reps := make([]*replica, 0, len(names))
	for _, name := range names {
		if rep := f.replicas[name]; rep != nil {
			reps = append(reps, rep)
		}
	}
	f.mu.RUnlock()
	now := time.Now()
	var out Fleetz
	out.VNodes = vnodes
	for _, rep := range reps {
		out.Replicas = append(out.Replicas, rep.status(now))
	}
	out.Routing.Forwards = f.stats.forwards.Load()
	out.Routing.Failovers = f.stats.failovers.Load()
	out.Routing.Hedges = f.stats.hedges.Load()
	out.Routing.Retries = f.stats.retries.Load()
	out.Routing.NoReplica = f.stats.noReplica.Load()
	out.Routing.Replications = f.stats.replications.Load()
	out.Routing.ReplicationFailures = f.stats.replFailures.Load()
	return out
}

func (f *Front) handleFleetz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(f.Status())
}

// AdminReplicasRequest is the POST /admin/replicas body: add joins
// workers to the ring, drain begins graceful scale-down, remove drops
// them outright.
type AdminReplicasRequest struct {
	Add    []string `json:"add,omitempty"`
	Drain  []string `json:"drain,omitempty"`
	Remove []string `json:"remove,omitempty"`
}

func (f *Front) handleAdminReplicas(w http.ResponseWriter, r *http.Request) {
	var req AdminReplicasRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeFrontError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	for _, name := range req.Add {
		f.AddReplica(name)
	}
	for _, name := range req.Drain {
		if !f.DrainReplica(name) {
			writeFrontError(w, http.StatusNotFound, "unknown replica %q", name)
			return
		}
	}
	for _, name := range req.Remove {
		if !f.RemoveReplica(name) {
			writeFrontError(w, http.StatusNotFound, "unknown replica %q", name)
			return
		}
	}
	f.handleFleetz(w, r)
}
