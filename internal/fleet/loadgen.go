package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/server"
)

// figure2aPolicies is the paper's Figure 2a policy specification — the
// workload every load-generated session is verified and repaired
// against.
const figure2aPolicies = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"

// Mixes name the request blends the load generator replays. Weights are
// (verify, repair, delta) out of the non-load remainder; sessions load
// lazily on first touch, and churn deltas keep forking warm solve
// caches while fresh verify/repair traffic hits them.
var Mixes = map[string][3]int{
	"verify": {8, 1, 1},
	"repair": {2, 7, 1},
	"churn":  {2, 3, 5},
	"mixed":  {4, 3, 3},
}

// MixNames lists the available mixes, sorted.
func MixNames() []string {
	names := make([]string, 0, len(Mixes))
	for name := range Mixes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LoadOptions configures one deterministic load-generation run. The
// request *schedule* (which client issues which op against which config
// set, and every config byte) is a pure function of Seed and the shape
// parameters; only timing varies run to run.
type LoadOptions struct {
	// Target is the base URL of a cprfront (or a single cprd — the SLO
	// baseline) instance.
	Target string
	// Mix is one of MixNames() (default "mixed").
	Mix string
	// Requests is the total operation count across clients (default 200).
	Requests int
	// Clients is the number of concurrent virtual clients (default 4).
	Clients int
	// Sessions is how many distinct config sets each client works
	// against (default 2). Clients own disjoint config sets, so traces
	// are comparable per client even under concurrency.
	Sessions int
	// Seed drives the schedule and all config variants.
	Seed int64
	// Trace collects a canonical result string per op (per client, in
	// issue order) for differential oracles.
	Trace bool
	// HTTPClient overrides the transport (tests share one client).
	HTTPClient *http.Client
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Mix == "" {
		o.Mix = "mixed"
	}
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Sessions <= 0 {
		o.Sessions = 2
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

type opKind int

const (
	opVerify opKind = iota
	opRepair
	opDelta
)

func (k opKind) String() string {
	switch k {
	case opVerify:
		return "verify"
	case opRepair:
		return "repair"
	default:
		return "delta"
	}
}

// VariantConfigs returns the id-th deterministic figure-2a variant: the
// base configs with device A's link costs permuted. 81 distinct
// variants (ids beyond that wrap), each a distinct content address with
// the same topology and policy surface.
func VariantConfigs(id int) (map[string]string, error) {
	cfgs := config.Figure2aConfigs()
	c, err := config.Parse("A", cfgs["A"])
	if err != nil {
		return nil, err
	}
	if _, err := c.SetInterfaceCost("Ethernet0/1", 1+id%9); err != nil {
		return nil, err
	}
	if _, err := c.SetInterfaceCost("Ethernet0/2", 1+(id/9)%9); err != nil {
		return nil, err
	}
	cfgs["A"] = c.Print()
	return cfgs, nil
}

// churnDelta returns the config overlay for a session's step-th churn
// delta: device C's first link cost cycling through 1..9. Deterministic
// in (texts, step).
func churnDelta(texts map[string]string, step int) (map[string]string, error) {
	c, err := config.Parse("C", texts["C"])
	if err != nil {
		return nil, err
	}
	if _, err := c.SetInterfaceCost("Ethernet0/1", 1+step%9); err != nil {
		return nil, err
	}
	return map[string]string{"C": c.Print()}, nil
}

// sessionState is one virtual client's view of one config set.
type sessionState struct {
	texts     map[string]string
	key       string // session key once loaded
	churnStep int
}

// sample is one completed operation.
type sample struct {
	kind    opKind
	dur     time.Duration
	replica string
	shed    bool // saw at least one 429 along the way
	reroute bool // saw at least one 404 and re-loaded
	err     error
}

// loadClient is one virtual client: its own rng-derived schedule over
// its own config sets, issued sequentially.
type loadClient struct {
	opts     LoadOptions
	http     *http.Client
	sessions []*sessionState
	weights  [3]int
	schedule *rand.Rand // draws the client's ops in issue order
	ops      int        // the schedule's length
	issued   int
	samples  []sample
	trace    []string
}

// RunLoad replays a deterministic request mix against the target and
// returns the SLO report plus (when opts.Trace) each client's canonical
// per-op results.
func RunLoad(opts LoadOptions) (*Report, [][]string, error) {
	opts = opts.withDefaults()
	clients, err := newClients(opts)
	if err != nil {
		return nil, nil, err
	}
	report := buildReport(opts, clients, runClients(clients, 1, 1))
	var traces [][]string
	if opts.Trace {
		traces = make([][]string, len(clients))
		for i, lc := range clients {
			traces[i] = lc.trace
		}
	}
	return report, traces, nil
}

// newClients builds the clients of opts, which must have its defaults
// set, each with its deterministic schedule and no op issued yet: op
// kinds weighted by the mix, session indices uniform, requests split
// evenly with the remainder on the first clients.
func newClients(opts LoadOptions) ([]*loadClient, error) {
	weights, ok := Mixes[opts.Mix]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown mix %q (want one of %s)", opts.Mix, strings.Join(MixNames(), ", "))
	}
	clients := make([]*loadClient, opts.Clients)
	for c := range clients {
		lc := &loadClient{opts: opts, http: opts.HTTPClient, weights: weights,
			schedule: rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(c))),
			ops:      opts.Requests / opts.Clients}
		if c < opts.Requests%opts.Clients {
			lc.ops++
		}
		for s := 0; s < opts.Sessions; s++ {
			texts, err := VariantConfigs(c*opts.Sessions + s)
			if err != nil {
				return nil, fmt.Errorf("fleet: building config variant: %w", err)
			}
			lc.sessions = append(lc.sessions, &sessionState{texts: texts})
		}
		clients[c] = lc
	}
	return clients, nil
}

// runClients issues each client's schedule up to the fraction upTo/of of
// its length, the clients concurrently, and returns the wall time that
// took. Ops issued by an earlier call are not repeated, so calls with
// upTo = 1, 2, ..., of run the schedule in of slices.
func runClients(clients []*loadClient, upTo, of int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, lc := range clients {
		wg.Add(1)
		go func(lc *loadClient) {
			defer wg.Done()
			for ; lc.issued < lc.ops*upTo/of; lc.issued++ {
				kind := pickOp(lc.schedule, lc.weights)
				lc.run(kind, lc.sessions[lc.schedule.Intn(len(lc.sessions))])
			}
		}(lc)
	}
	wg.Wait()
	return time.Since(start)
}

func pickOp(rng *rand.Rand, w [3]int) opKind {
	total := w[0] + w[1] + w[2]
	n := rng.Intn(total)
	switch {
	case n < w[0]:
		return opVerify
	case n < w[0]+w[1]:
		return opRepair
	default:
		return opDelta
	}
}

// --- client operations ---

// maxShedRetries bounds how often a client re-submits a shed (429)
// request before counting it as a failure.
const maxShedRetries = 50

// post issues one JSON POST and decodes the body, returning the status
// and serving replica.
func (lc *loadClient) post(path string, body any, out any) (int, string, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	resp, err := lc.http.Post(lc.opts.Target+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(ReplicaHeader), nil
}

// postRetry is post with shed handling: 429s (worker queue full) and
// 503s (front momentarily sees no eligible replica, e.g. mid-rebalance)
// are retried after a short pause — the server's jittered Retry-After is
// for production pacing; load runs compress it.
func (lc *loadClient) postRetry(path string, body any, out any, s *sample) (int, string, error) {
	for try := 0; ; try++ {
		st, replica, err := lc.post(path, body, out)
		if err != nil {
			return st, replica, err
		}
		if st != http.StatusTooManyRequests && st != http.StatusServiceUnavailable {
			return st, replica, nil
		}
		s.shed = true
		if try >= maxShedRetries {
			return st, replica, fmt.Errorf("%s: still shed after %d retries", path, try)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ensureLoaded loads the session if this client has not yet (or a
// topology change 404ed it away).
func (lc *loadClient) ensureLoaded(sess *sessionState, s *sample) error {
	var lr server.LoadResponse
	st, _, err := lc.postRetry("/v1/load", server.LoadRequest{Configs: sess.texts}, &lr, s)
	if err != nil {
		return err
	}
	if st != http.StatusOK {
		return fmt.Errorf("load: status %d", st)
	}
	sess.key = lr.Session
	return nil
}

// run executes one scheduled op against one session, recording a sample
// (and, when tracing, the canonical result).
func (lc *loadClient) run(kind opKind, sess *sessionState) {
	t0 := time.Now()
	s := sample{kind: kind}
	canon, err := lc.execute(kind, sess, &s)
	s.dur = time.Since(t0)
	s.err = err
	lc.samples = append(lc.samples, s)
	if lc.opts.Trace {
		if err != nil {
			canon = fmt.Sprintf("%s error=%v", kind, err)
		}
		lc.trace = append(lc.trace, canon)
	}
}

func (lc *loadClient) execute(kind opKind, sess *sessionState, s *sample) (string, error) {
	if sess.key == "" {
		if err := lc.ensureLoaded(sess, s); err != nil {
			return "", err
		}
	}
	switch kind {
	case opVerify:
		return lc.verify(sess, s)
	case opRepair:
		return lc.repair(sess, s)
	default:
		return lc.delta(sess, s)
	}
}

// maxRerouteRetries bounds how many times a client re-loads a 404ed
// session before surfacing the 404. One retry suffices in steady state;
// the bound absorbs back-to-back membership changes that can move the
// key again between the re-load and the retry.
const maxRerouteRetries = 5

// withReload runs op, and on a 404 (the session's ring owner changed, or
// the holder restarted) re-loads the session and retries. That is the
// fleet client contract: sessions are cache entries, not durable state,
// and the content address makes the reloaded session answer
// byte-identically.
func (lc *loadClient) withReload(sess *sessionState, s *sample, op func() (int, string, error)) (int, string, error) {
	for try := 0; ; try++ {
		st, replica, err := op()
		if err != nil || st != http.StatusNotFound || try >= maxRerouteRetries {
			return st, replica, err
		}
		s.reroute = true
		if err := lc.ensureLoaded(sess, s); err != nil {
			return 0, "", err
		}
	}
}

func (lc *loadClient) verify(sess *sessionState, s *sample) (string, error) {
	var vr server.VerifyResponse
	st, replica, err := lc.withReload(sess, s, func() (int, string, error) {
		return lc.postRetry("/v1/verify", server.VerifyRequest{Session: sess.key, Policies: figure2aPolicies}, &vr, s)
	})
	if err != nil {
		return "", err
	}
	if st != http.StatusOK {
		return "", fmt.Errorf("verify: status %d", st)
	}
	s.replica = replica
	return fmt.Sprintf("verify key=%s total=%d violated=%v", sess.key, vr.Total, vr.Violated), nil
}

func (lc *loadClient) repair(sess *sessionState, s *sample) (string, error) {
	var rr server.RepairResponse
	st, replica, err := lc.withReload(sess, s, func() (int, string, error) {
		return lc.postRetry("/v1/repair", server.RepairRequest{Session: sess.key, Policies: figure2aPolicies}, &rr, s)
	})
	if err != nil {
		return "", err
	}
	if st != http.StatusOK {
		return "", fmt.Errorf("repair: status %d", st)
	}
	s.replica = replica
	// Canonical form excludes timing and cache-warmth markers (Reused,
	// DurationMS): those legitimately differ between a fleet replica and
	// the single-node baseline; everything semantic may not. bench/golden.json
	// pins these lines' hash, so "degraded=0" stays until ROADMAP item 9 (x).
	return fmt.Sprintf("repair key=%s solved=%v degraded=0 failed=%d changes=%d lines=%d conflicts=%d plan=%q patched=%s",
		sess.key, rr.Solved, rr.Failed, rr.Changes, rr.Lines, rr.Conflicts, rr.Plan, cpr.ContentKey(rr.PatchedConfigs)), nil
}

func (lc *loadClient) delta(sess *sessionState, s *sample) (string, error) {
	changed, err := churnDelta(sess.texts, sess.churnStep)
	if err != nil {
		return "", err
	}
	sess.churnStep++
	var dr server.DeltaResponse
	st, replica, err := lc.withReload(sess, s, func() (int, string, error) {
		return lc.postRetry("/v1/delta", server.DeltaRequest{Session: sess.key, Configs: changed}, &dr, s)
	})
	if err != nil {
		return "", err
	}
	if st != http.StatusOK {
		return "", fmt.Errorf("delta: status %d", st)
	}
	s.replica = replica
	// The client's local view follows the delta: subsequent ops address
	// the derived session, and a later 404 re-loads the full overlaid
	// set.
	for k, v := range changed {
		if v == "" {
			delete(sess.texts, k)
		} else {
			sess.texts[k] = v
		}
	}
	sess.key = dr.Session
	return fmt.Sprintf("delta key=%s devices=%d subnets=%d links=%d tcs=%d",
		dr.Session, dr.Devices, dr.Subnets, dr.Links, dr.TrafficClasses), nil
}
