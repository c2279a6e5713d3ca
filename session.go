package cpr

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
)

// ContentKey returns the canonical content address of a configuration
// set: a sha256 over length-framed (label, text) pairs in label order.
// Two sets have equal keys iff they are byte-identical, so the key
// doubles as the session cache address and the solve-cache epoch.
func ContentKey(configs map[string]string) string {
	h := sha256.New()
	for _, k := range sortedLabels(configs) {
		fmt.Fprintf(h, "%d:%s\x00%d:%s\x00", len(k), k, len(configs[k]), configs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Session is a loaded network plus the incremental-repair state that
// persists across calls: the per-label parsed configurations and a
// solve cache retaining each solved sub-problem's answer (its stat and
// staged repair), keyed by an exact fingerprint of the sub-problem's
// inputs. Repeat repairs whose sub-problems a config change cannot reach
// replay from the cache instead of re-solving.
//
// Sessions are immutable: Delta derives a new session for a changed
// config set, sharing unchanged parsed configs and (via a fork) the
// solve cache. A Session is safe for concurrent use.
type Session struct {
	key    string
	texts  map[string]string
	parsed map[string]*config.Config
	sys    *System
	cache  *core.SolveCache

	// outputs memoizes whole verified repair outputs per (policies,
	// options) key. RepairCtx is deterministic for a fixed System, so an
	// identical repeat request replays the stored output — including the
	// translated plan and patched configs — byte-identically, skipping
	// verification and translation as well as the solves. Never shared
	// across Delta (a new Session has a new HARC).
	mu      sync.Mutex
	outputs map[string]*RepairOutput
}

// maxOutputMemo bounds distinct (policies, options) outputs retained per
// session; beyond it the memo drops an arbitrary entry (sessions almost
// always see one policy set, so this is a safety valve, not an LRU).
const maxOutputMemo = 8

// NewSession loads a config set (as Load) and attaches a fresh solve
// cache whose epoch is the set's ContentKey.
func NewSession(configs map[string]string) (*Session, error) {
	parsed, err := parseLabeled(configs)
	if err != nil {
		return nil, err
	}
	sys, err := systemFromParsed(parsed)
	if err != nil {
		return nil, err
	}
	texts := make(map[string]string, len(configs))
	for k, v := range configs {
		texts[k] = v
	}
	key := ContentKey(texts)
	return &Session{key: key, texts: texts, parsed: parsed, sys: sys, cache: core.NewSolveCache(key)}, nil
}

// System returns the loaded network. The returned System is shared with
// the session; treat it as read-only.
func (s *Session) System() *System { return s.sys }

// Key returns the session's content address (see ContentKey).
func (s *Session) Key() string { return s.key }

// Configs returns a copy of the session's configuration texts by label.
func (s *Session) Configs() map[string]string {
	out := make(map[string]string, len(s.texts))
	for k, v := range s.texts {
		out[k] = v
	}
	return out
}

// Delta derives a new session by overlaying changed configuration texts
// onto this session's set: a present key replaces (or adds) that
// label's text, and an empty-string value removes the label. Only
// changed labels are re-parsed; the rest share their parsed config with
// the receiver. The solve cache is forked under the new content key, so
// sub-problems whose exact input closure the change cannot reach replay
// their retained solutions instead of re-solving (see
// core.SolveCache for the soundness argument).
func (s *Session) Delta(changed map[string]string) (*Session, error) {
	texts := overlayConfigs(s.texts, changed)
	if len(texts) == 0 {
		return nil, fmt.Errorf("cpr: delta removes every configuration")
	}
	parsed := make(map[string]*config.Config, len(texts))
	for _, k := range sortedLabels(texts) {
		if old, ok := s.parsed[k]; ok && s.texts[k] == texts[k] {
			parsed[k] = old
			continue
		}
		c, err := config.Parse(k, texts[k])
		if err != nil {
			return nil, err
		}
		parsed[k] = c
	}
	sys, err := systemFromParsed(parsed)
	if err != nil {
		return nil, err
	}
	key := ContentKey(texts)
	return &Session{key: key, texts: texts, parsed: parsed, sys: sys, cache: s.cache.Fork(key)}, nil
}

// DeltaKey returns the content key Delta(changed) would produce, without
// parsing or building anything. Callers (the server's /v1/delta) use it
// to answer a delta from an already-cached session for the resulting
// config set — the common case under oscillating churn.
func (s *Session) DeltaKey(changed map[string]string) string {
	return ContentKey(overlayConfigs(s.texts, changed))
}

// overlayConfigs applies a delta to a config set: present keys replace
// or add that label's text, empty-string values remove the label.
func overlayConfigs(base, changed map[string]string) map[string]string {
	out := make(map[string]string, len(base)+len(changed))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range changed {
		if v == "" {
			delete(out, k)
		} else {
			out[k] = v
		}
	}
	return out
}

// Repair is System.Repair through the session's solve cache: solved
// sub-problems are retained and replayed on later calls when their
// inputs are unchanged. Results are byte-identical to a fresh solve; a
// caller that wants one uncached calls s.System().Repair.
func (s *Session) Repair(policies []Policy, opts Options) (*RepairOutput, error) {
	return s.RepairCtx(context.Background(), policies, opts)
}

// RepairCtx is Repair under a context.
func (s *Session) RepairCtx(ctx context.Context, policies []Policy, opts Options) (*RepairOutput, error) {
	key := repairMemoKey(policies, opts)
	if out := s.lookupOutput(key); out != nil {
		return out, nil
	}
	opts.Cache = s.cache
	out, err := s.sys.RepairCtx(ctx, policies, opts)
	// Memoize only clean, fully solved outputs: anything degraded,
	// failed, or fallback-tainted re-runs fresh (matching the
	// sub-problem cache's cacheability rule).
	if err == nil && out != nil && out.Solved() && out.Result.CompressFallbacks == 0 {
		s.storeOutput(key, out)
	}
	return out, err
}

// repairMemoKey hashes the repair request's full input surface beyond
// the session itself: the policy set (by canonical string) and every
// option.
func repairMemoKey(policies []Policy, opts Options) string {
	o := opts
	o.Cache = nil
	h := sha256.New()
	for _, p := range policies {
		str := p.String()
		fmt.Fprintf(h, "%d:%s\x00", len(str), str)
	}
	fmt.Fprintf(h, "%+v", o)
	return hex.EncodeToString(h.Sum(nil))
}

// lookupOutput returns a replay of a memoized output: a copy whose
// Result marks every sub-problem as reused. The underlying plan and
// patched texts are shared (callers treat outputs as read-only).
func (s *Session) lookupOutput(key string) *RepairOutput {
	s.mu.Lock()
	stored, ok := s.outputs[key]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	out := *stored
	res := *stored.Result
	res.Stats = make([]core.ProblemStat, len(stored.Result.Stats))
	copy(res.Stats, stored.Result.Stats)
	for i := range res.Stats {
		res.Stats[i].Reused = true
	}
	res.Reused = len(res.Stats)
	out.Result = &res
	return &out
}

func (s *Session) storeOutput(key string, out *RepairOutput) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.outputs == nil {
		s.outputs = make(map[string]*RepairOutput)
	}
	if _, ok := s.outputs[key]; !ok && len(s.outputs) >= maxOutputMemo {
		for k := range s.outputs {
			delete(s.outputs, k)
			break
		}
	}
	s.outputs[key] = out
}

// CacheStats reports the solve cache's entry count, retained solvers,
// hit/miss/store counters, and approximate retained bytes.
func (s *Session) CacheStats() core.SolveCacheStats { return s.cache.Stats() }

// SumCacheStats sums the solve-cache stats of sessions, counting an entry
// that several of them hold (a Delta shares its parent's entries) once;
// hit, miss and store counters are per-session sums. The server's /statsz
// reports it for memory accounting of long-lived sessions.
func SumCacheStats(sessions ...*Session) core.SolveCacheStats {
	caches := make([]*core.SolveCache, len(sessions))
	for i, s := range sessions {
		caches[i] = s.cache
	}
	return core.SumStats(caches...)
}
