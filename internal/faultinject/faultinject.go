// Package faultinject is a process-wide failpoint registry for chaos
// testing the repair pipeline. Production code calls Eval at a small
// number of named sites (the SAT solver's search entry, the MaxSMT
// encoder, the compressed-repair checks, the daemon's session-cache
// build path); with no failpoint armed, Eval is a single atomic load and
// a branch, so the registry can stay compiled into release binaries at
// effectively zero cost.
//
// A failpoint is armed programmatically (Set, SetCallback) or from the
// CPR_FAILPOINTS environment variable (FromEnv), using a small spec
// grammar:
//
//	[count*]kind[(arg)]
//
//	panic          panic with a *faultinject.Panic value
//	error          return ErrInjected
//	sleep(50ms)    sleep for the given duration, then return nil
//
// A leading "count*" limits the failpoint to its first count
// evaluations ("1*panic" fires exactly once, modelling a transient
// crash); without it the failpoint fires on every evaluation. Fired
// counts are recorded per site and survive Reset, so a seeded chaos
// campaign can assert that every registered site actually triggered.
package faultinject

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error produced by error-kind failpoints. Injection
// sites and tests detect injected faults with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Panic is the value thrown by panic-kind failpoints, so recovery
// layers can tell an injected panic from a genuine one.
type Panic struct{ Site string }

func (p *Panic) Error() string { return "faultinject: injected panic at " + p.Site }

// Registered failpoint sites. Each constant names the exact place in
// production code where Eval is called.
const (
	// SATSolvePanic panics at the top of sat.Solver.Solve.
	SATSolvePanic = "sat/solve-panic"
	// SATSpuriousInterrupt sets the solver's sticky interrupt flag at
	// the top of Solve, as if an unrelated cancellation had fired.
	SATSpuriousInterrupt = "sat/spurious-interrupt"
	// SATBudgetStarve makes Solve return Unknown immediately, as if the
	// conflict budget had been exhausted before the first conflict.
	SATBudgetStarve = "sat/budget-starve"
	// CoreEncodeError fails the MaxSMT encoder before any constraint is
	// emitted.
	CoreEncodeError = "core/encode-error"
	// CoreEncodeSlow delays the MaxSMT encoder (sleep specs), or hands
	// control to a test callback for deterministic scheduling.
	CoreEncodeSlow = "core/encode-slow"
	// ServerCacheLoadError fails the session cache's build function in
	// the daemon's /v1/load path.
	ServerCacheLoadError = "server/cache-load-error"
	// ServerDeltaError fails the incremental session derivation in the
	// daemon's /v1/delta path.
	ServerDeltaError = "server/delta-error"
	// ServerRepairAbort aborts the HTTP connection at the top of the
	// daemon's /v1/repair handler (the response is never written and the
	// client sees a transport error), modelling a replica crashing
	// mid-request. The fleet front tier's failover path is exercised
	// against exactly this site.
	ServerRepairAbort = "server/repair-abort"
	// CoreReverifyError fails the concrete acceptance check of a
	// compressed repair, forcing the "reverify" fallback to the
	// uncompressed solve.
	CoreReverifyError = "core/reverify-error"
	// CPRReplayError fails the check that re-parses a compressed repair's
	// patched configuration text and re-verifies it: cpr.RepairCtx returns
	// an error wrapping cpr.ErrUnfaithfulPatch that names the first
	// repaired policy.
	CPRReplayError = "cpr/replay-error"
)

// Sites lists every registered injection site, sorted.
func Sites() []string {
	s := []string{
		SATSolvePanic,
		SATSpuriousInterrupt,
		SATBudgetStarve,
		CoreEncodeError,
		CoreEncodeSlow,
		CoreReverifyError,
		CPRReplayError,
		ServerCacheLoadError,
		ServerDeltaError,
		ServerRepairAbort,
	}
	sort.Strings(s)
	return s
}

type kind int

const (
	kindError kind = iota
	kindPanic
	kindSleep
	kindCallback
)

// point is one armed failpoint.
type point struct {
	kind  kind
	sleep time.Duration
	fn    func() error
	// remaining is the number of future firings (<0 = unlimited).
	remaining atomic.Int64
}

var (
	// enabled is Eval's fast path: false whenever no failpoint is armed.
	enabled atomic.Bool

	mu     sync.RWMutex
	points = map[string]*point{}

	// fired counts actual triggers per site; it survives Clear and Reset
	// so campaigns can assert coverage across rounds.
	fired sync.Map // string → *atomic.Int64
)

// Enabled reports whether any failpoint is armed. Injection sites may
// use it to skip several Eval calls with one load.
func Enabled() bool { return enabled.Load() }

// Set arms site with the given spec, replacing any previous arming.
func Set(site, spec string) error {
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("faultinject: %s: %w", site, err)
	}
	mu.Lock()
	points[site] = p
	enabled.Store(true)
	mu.Unlock()
	return nil
}

// SetCallback arms site with a function. The callback fires on every
// evaluation; its error (if any) is returned to the injection site,
// which treats non-nil as "fault fired". Callbacks let tests coordinate
// deterministic schedules (count calls, block, cancel contexts).
func SetCallback(site string, fn func() error) {
	p := &point{kind: kindCallback, fn: fn}
	p.remaining.Store(-1)
	mu.Lock()
	points[site] = p
	enabled.Store(true)
	mu.Unlock()
}

// Clear disarms one site.
func Clear(site string) {
	mu.Lock()
	delete(points, site)
	enabled.Store(len(points) > 0)
	mu.Unlock()
}

// Reset disarms every site. Fired counts are preserved.
func Reset() {
	mu.Lock()
	points = map[string]*point{}
	enabled.Store(false)
	mu.Unlock()
}

// FiredCount returns how many times site has actually triggered over
// the life of the process (across Set/Clear/Reset cycles).
func FiredCount(site string) int64 {
	if c, ok := fired.Load(site); ok {
		return c.(*atomic.Int64).Load()
	}
	return 0
}

func bumpFired(site string) {
	c, ok := fired.Load(site)
	if !ok {
		c, _ = fired.LoadOrStore(site, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(1)
}

// Eval triggers site if it is armed: panic-kind points panic with a
// *Panic, error-kind points return ErrInjected, sleep-kind points block
// and return nil, callback points return the callback's result. With
// nothing armed anywhere, Eval is one atomic load.
func Eval(site string) error {
	if !enabled.Load() {
		return nil
	}
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil {
		return nil
	}
	// Claim one firing (remaining < 0 means unlimited).
	for {
		r := p.remaining.Load()
		if r == 0 {
			return nil
		}
		if r < 0 || p.remaining.CompareAndSwap(r, r-1) {
			break
		}
	}
	bumpFired(site)
	switch p.kind {
	case kindPanic:
		panic(&Panic{Site: site})
	case kindSleep:
		time.Sleep(p.sleep)
		return nil
	case kindCallback:
		return p.fn()
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// FromEnv arms failpoints from the CPR_FAILPOINTS environment variable:
// a semicolon-separated list of site=spec pairs, e.g.
//
//	CPR_FAILPOINTS="sat/solve-panic=1*panic;core/encode-slow=sleep(50ms)"
//
// An empty or unset variable is a no-op. Unknown sites are rejected so
// typos fail loudly at daemon start instead of silently never firing.
func FromEnv() error {
	return fromSpec(os.Getenv("CPR_FAILPOINTS"))
}

func fromSpec(env string) error {
	if env == "" {
		return nil
	}
	known := map[string]bool{}
	for _, s := range Sites() {
		known[s] = true
	}
	for _, pair := range strings.Split(env, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		site, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("faultinject: malformed CPR_FAILPOINTS entry %q (want site=spec)", pair)
		}
		site, spec = strings.TrimSpace(site), strings.TrimSpace(spec)
		if !known[site] {
			return fmt.Errorf("faultinject: unknown site %q (known: %s)", site, strings.Join(Sites(), ", "))
		}
		if err := Set(site, spec); err != nil {
			return err
		}
	}
	return nil
}

// parseSpec parses "[count*]kind[(arg)]".
func parseSpec(spec string) (*point, error) {
	count := int64(-1)
	rest := spec
	if i := strings.IndexByte(spec, '*'); i >= 0 {
		n, err := strconv.ParseInt(spec[:i], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count in spec %q", spec)
		}
		count = n
		rest = spec[i+1:]
	}
	p := &point{}
	p.remaining.Store(count)
	switch {
	case rest == "panic":
		p.kind = kindPanic
	case rest == "error":
		p.kind = kindError
	case strings.HasPrefix(rest, "sleep(") && strings.HasSuffix(rest, ")"):
		d, err := time.ParseDuration(rest[len("sleep(") : len(rest)-1])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad sleep duration in spec %q", spec)
		}
		p.kind = kindSleep
		p.sleep = d
	default:
		return nil, fmt.Errorf("unknown failpoint kind in spec %q (want panic, error, or sleep(dur))", spec)
	}
	return p, nil
}
