package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"strconv"
	"sync"

	"repro/internal/bitset"
	"repro/internal/harc"
	"repro/internal/smt/sat"
)

// SolveCache memoizes per-sub-problem solves across Repair calls on the
// same (or an incrementally updated) network. Each entry is keyed by a
// fingerprint of the sub-problem's complete encoding closure — the
// options, policies, tables rows, and every original-state value the
// encoder bakes into constraints, soft weights, or phase seeds — so a
// hit replays a result byte-identical to what a fresh solve would
// produce: the solver is deterministic, and two sub-problems with equal
// fingerprints build equal formulas.
//
// An entry keeps only the answer: the outcome's stat and its staged
// repair. The solver, encoder, formula arena and storage of the attempt
// that produced it are worker scratch and stay with the worker (DESIGN.md
// §6, "The cache keeps answers; the server paces its collector").
//
// A SolveCache is safe for concurrent use by parallel per-destination
// workers and by concurrent Repair calls sharing one session.
type SolveCache struct {
	mu      sync.Mutex
	epoch   string
	entries map[string]*solveEntry
	hits    uint64
	misses  uint64
	stores  uint64
}

// solveEntry is one memoized terminal sub-problem outcome. Entries are
// immutable after store; replay only copies out of them.
type solveEntry struct {
	stat ProblemStat // Duration zeroed; Reused set on replay
	// realized is the problem's staged repair (see problem.realized): nil
	// for Unsat entries.
	realized *harc.State
	bytes    int64 // realized.ApproxBytes(), 0 for Unsat entries
	// epochBound marks an entry whose fingerprint folds in the cache's
	// epoch (a compression-eligible sub-problem): Fork leaves it behind.
	epochBound bool
}

// NewSolveCache returns an empty cache. epoch must identify the exact
// config set of the session (cprd uses the content-addressed session
// key): it is folded into the fingerprint of compression-eligible
// sub-problems, whose quotient construction reads the whole network
// rather than just the sub-problem's closure. An empty epoch disables
// caching for those sub-problems only.
func NewSolveCache(epoch string) *SolveCache {
	return &SolveCache{epoch: epoch, entries: make(map[string]*solveEntry)}
}

// Epoch returns the config-set identity this cache was built or forked
// for.
func (c *SolveCache) Epoch() string { return c.epoch }

// Fork snapshots the cache for a derived session under a new epoch.
// Entries are shared by reference (they are immutable), so an entry stays
// alive until no cache holding it is reachable; counters start fresh.
// Entries whose fingerprint embedded the old epoch can never match under
// the new one, so they stay behind and die with c.
func (c *SolveCache) Fork(epoch string) *SolveCache {
	nc := NewSolveCache(epoch)
	if c == nil {
		return nc
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, v := range c.entries {
		if !v.epochBound {
			nc.entries[k] = v
		}
	}
	return nc
}

// SolveCacheStats is a point-in-time cache summary.
type SolveCacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	Stores  uint64
	// RetainedBytes estimates the memory pinned by the entries' staged
	// replay states.
	RetainedBytes int64
}

// Stats returns current counters and retained-memory accounting.
func (c *SolveCache) Stats() SolveCacheStats { return SumStats(c) }

// SumStats sums the counters of caches and their retained memory,
// counting an entry that several of them share (Fork shares entries by
// reference) once.
func SumStats(caches ...*SolveCache) SolveCacheStats {
	var st SolveCacheStats
	seen := make(map[*solveEntry]bool)
	for _, c := range caches {
		if c == nil {
			continue
		}
		c.mu.Lock()
		st.Hits += c.hits
		st.Misses += c.misses
		st.Stores += c.stores
		for _, e := range c.entries {
			if seen[e] {
				continue
			}
			seen[e] = true
			st.Entries++
			st.RetainedBytes += e.bytes
		}
		c.mu.Unlock()
	}
	return st
}

// replay looks fp up and replays its entry onto the problem through the
// acceptance gate (solveEntry.replay). An entry the gate rejects is
// dropped, so the fresh solve's answer takes its place, and the lookup
// counts as a miss.
func (c *SolveCache) replay(fp string, h *harc.HARC, pr *problem) bool {
	c.mu.Lock()
	e := c.entries[fp]
	c.mu.Unlock()
	ok := e != nil && e.replay(h, pr)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.hits++
		return true
	}
	c.misses++
	if e != nil && c.entries[fp] == e {
		delete(c.entries, fp)
	}
	return false
}

// store inserts an entry; the first store for a fingerprint wins, so
// concurrent Repair calls racing on the same sub-problem keep one
// consistent entry (both computed byte-identical results anyway).
func (c *SolveCache) store(fp string, e *solveEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[fp]; ok {
		return
	}
	c.entries[fp] = e
	c.stores++
}

// replay copies the memoized outcome onto the problem, putting a solved
// entry's repair to the acceptance gate; a rejected one leaves the problem
// as it was and reports false. The caller's deferred Duration measurement
// still applies, so replayed stats carry the replay's own time.
func (e *solveEntry) replay(h *harc.HARC, pr *problem) bool {
	fresh := pr.stat
	pr.stat = e.stat
	pr.stat.Reused = true
	pr.stat.Outcome = OutcomeFailed // an Unsat entry's; accept sets a Sat one's
	if e.realized != nil && accept(h, pr, e.realized, e.stat.Violations) != nil {
		pr.stat = fresh
		return false
	}
	return true
}

// fpWriter streams length-framed tokens into a hash, avoiding ambiguity
// between adjacent fields without per-token allocations.
type fpWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *fpWriter) str(s string) {
	w.buf = strconv.AppendInt(w.buf[:0], int64(len(s)), 10)
	w.buf = append(w.buf, ':')
	w.h.Write(w.buf)
	io.WriteString(w.h, s)
}

func (w *fpWriter) i64(v int64) {
	w.buf = strconv.AppendInt(w.buf[:0], v, 10)
	w.buf = append(w.buf, ',')
	w.h.Write(w.buf)
}

// bits writes a whole state row.
func (w *fpWriter) bits(row bitset.Set) {
	w.i64(int64(len(row)))
	for _, word := range row {
		w.buf = binary.LittleEndian.AppendUint64(w.buf[:0], word)
		w.h.Write(w.buf)
	}
}

func (w *fpWriter) boolean(v bool) {
	if v {
		w.h.Write([]byte{'T'})
	} else {
		w.h.Write([]byte{'F'})
	}
}

// fingerprintVersion tags the hash layout; bump it whenever the hashed
// closure gains an input (one the encoder reads, or one the replayed rows
// carry), so stale-layout fingerprints cannot collide.
const fingerprintVersion = "cprfp6"

// problemFingerprint hashes the complete input closure of one
// sub-problem's encode+solve: the slot table's shape, and every
// original-state row and option the encoder reads. Two sub-problems with
// equal fingerprints produce byte-identical formulas, variable
// numberings, and therefore models — the soundness contract the solve
// cache rests on (see DESIGN.md).
//
// The shape (every slot key, process and link, in id order) pins the
// meaning of every id: the tables, the variable numbering and the bit
// positions of the hashed rows are functions of it, and a hit's rows
// replay by id into any state of the same shape. A change that adds or
// removes a slot therefore invalidates every entry; a change confined to
// other destinations' rows invalidates none.
//
// epochBound reports whether the fingerprint folds in epoch, as it does
// for a compression-eligible sub-problem (the quotient construction reads
// the whole network). ok is false when the sub-problem cannot be safely
// fingerprinted: it is compression-eligible and the cache has no
// config-set epoch to pin that global input.
func problemFingerprint(tb *tables, orig *harc.State, pr *problem, opts Options, epoch string) (fp string, epochBound, ok bool) {
	w := &fpWriter{h: sha256.New()}
	w.str(fingerprintVersion)

	// Global inputs: the quotient path reads the entire network, so
	// compression-eligible problems pin the full config-set epoch.
	if epochBound = compressEligible(tb.h, pr, opts); epochBound {
		if epoch == "" {
			return "", true, false
		}
		w.str(epoch)
	}

	// Options the encoder or solver reads.
	w.i64(int64(opts.Granularity))
	w.i64(int64(opts.Algorithm))
	w.i64(int64(opts.Objective))
	w.i64(opts.ConflictBudget)
	w.i64(int64(opts.Compress))
	w.i64(int64(opts.CompressRedundancy))
	w.boolean(pr.freeze)
	w.str(pr.label)

	// Policies fully identify themselves (kind, endpoints, K, path).
	w.i64(int64(len(pr.policies)))
	for _, p := range pr.policies {
		w.str(p.String())
	}

	// The shape, plus the only per-slot encoder input that is neither a
	// function of the slot's key nor a state bit: the intra-device
	// middlebox constant.
	h := tb.h
	w.i64(int64(len(h.Slots)))
	for _, s := range h.Slots {
		w.str(s.Key())
		w.boolean(s.Waypoint())
	}
	w.i64(int64(len(h.Procs)))
	for _, p := range h.Procs {
		w.str(p.Name())
	}
	w.i64(int64(len(h.Links)))
	for _, l := range h.Links {
		w.str(l.Name())
	}

	// Shared rows: aETG presence (frozen problems bake it into constants,
	// others seed phases and softs from it), waypoints and costs.
	w.bits(orig.All)
	w.bits(orig.Waypoint)
	for _, s := range h.Slots {
		if ck := s.CostKey(); ck != "" {
			w.i64(orig.Cost[ck])
		}
	}

	// Per-class and per-destination rows. Prefixes feed the translator's
	// and the encoder's construct matching.
	w.i64(int64(len(pr.tcs)))
	for _, tc := range pr.tcs {
		w.str(tc.Key())
		w.str(tc.Src.Prefix.String())
		w.str(tc.Dst.Prefix.String())
		w.bits(orig.TC[h.TCRow(tc)])
	}
	dsts := pr.dsts()
	w.i64(int64(len(dsts)))
	for _, dst := range dsts {
		w.str(dst.Name)
		w.str(dst.Prefix.String())
		r := h.DstRow(dst)
		w.bits(orig.Dst[r])
		w.bits(orig.RouteFilter[r])
		w.bits(orig.Static[r])
		// The encoder does not read static distances, but the replayed rows
		// carry them.
		orig.Static[r].Each(func(id int) { w.i64(orig.StaticDistance(r, id)) })
	}

	return hex.EncodeToString(w.h.Sum(nil)), epochBound, true
}

// problemMemo decides whether a sub-problem participates in the solve
// cache and, if so, computes its fingerprint (problemFingerprint).
func problemMemo(tb *tables, orig *harc.State, pr *problem, opts Options) (fp string, epochBound, ok bool) {
	if opts.Cache == nil {
		return "", false, false
	}
	return problemFingerprint(tb, orig, pr, opts, opts.Cache.Epoch())
}

// cacheableOutcome reports whether a terminal outcome may be memoized:
// only first-attempt Sat or deterministic Unsat results, with no
// compression fallback recorded (the "encode"/"solve" fallback stages
// depend on timing) and no cancellation in flight. Unknown outcomes are
// timing- or fault-dependent and never cached — a later identical request
// retries them fresh.
func cacheableOutcome(pr *problem, ctxErr error) bool {
	if ctxErr != nil || pr.stat.Attempts != 1 || pr.stat.CompressFallback != "" {
		return false
	}
	return pr.stat.Outcome == OutcomeSolved || pr.stat.Status == sat.Unsat
}

// entryFor builds the memo entry for a problem that just reached a
// cacheable terminal outcome: its stat and its staged repair (replay hands
// the same immutable state to mergeRows), and whether its fingerprint
// folded in the epoch.
func entryFor(pr *problem, epochBound bool) *solveEntry {
	e := &solveEntry{stat: pr.stat, realized: pr.realized, epochBound: epochBound}
	e.stat.Duration = 0
	e.stat.Reused = false
	if pr.realized != nil {
		e.bytes = pr.realized.ApproxBytes()
	}
	return e
}
