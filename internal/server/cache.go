package server

import (
	"container/list"
	"sync"

	cpr "repro"
	"repro/internal/core"
)

// SessionKey is the content hash of a configuration set: identical
// configurations — regardless of map-label order — map to the same
// session, which is what makes the cache and single-flight deduplication
// sound. It is cpr.ContentKey, so server session IDs double as solve-
// cache epochs.
func SessionKey(configs map[string]string) string {
	return cpr.ContentKey(configs)
}

// loadOutcome classifies how getOrLoad produced its session.
type loadOutcome int

const (
	// loadBuilt means this call parsed the configs and built the HARC.
	loadBuilt loadOutcome = iota
	// loadHit means the session was already cached.
	loadHit
	// loadCoalesced means an identical load was in flight and this call
	// waited for its result (single-flight deduplication).
	loadCoalesced
)

// loadCall is one in-flight build that concurrent identical loads attach
// to.
type loadCall struct {
	done chan struct{}
	sess *cpr.Session
	err  error
}

// sessionCache is an LRU cache of loaded sessions keyed by SessionKey,
// with single-flight deduplication of concurrent identical loads.
// Eviction only drops the cache's reference: a session's solve cache
// holds answers, not solvers, so an evicted session is garbage once no
// request holds it, and one that a request still holds keeps replaying.
type sessionCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List // front = most recently used; values are *entry
	byKey   map[string]*list.Element
	loading map[string]*loadCall
}

type entry struct {
	key  string
	sess *cpr.Session
}

func newSessionCache(max int) *sessionCache {
	return &sessionCache{
		max:     max,
		lru:     list.New(),
		byKey:   make(map[string]*list.Element),
		loading: make(map[string]*loadCall),
	}
}

// get returns the cached session for key, bumping its recency.
func (c *sessionCache) get(key string) (*cpr.Session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(e)
	return e.Value.(*entry).sess, true
}

// put inserts (or refreshes) a session, evicting the least recently used
// entry beyond capacity.
func (c *sessionCache) put(key string, sess *cpr.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, sess)
}

func (c *sessionCache) insertLocked(key string, sess *cpr.Session) {
	if e, ok := c.byKey[key]; ok {
		// Same key means byte-identical configs; keep the cached session —
		// its solve cache is warmer than the incoming one's.
		c.lru.MoveToFront(e)
		return
	}
	c.byKey[key] = c.lru.PushFront(&entry{key: key, sess: sess})
	for c.lru.Len() > c.max {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.byKey, last.Value.(*entry).key)
	}
}

// len returns the number of cached sessions.
func (c *sessionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// retained sums solve-cache accounting across cached sessions, for
// /statsz: retained entries and approximate bytes counting an
// entry that sessions share (a delta forks its parent's cache) once, and
// hit/miss/store counters per session.
func (c *sessionCache) retained() core.SolveCacheStats {
	c.mu.Lock()
	sessions := make([]*cpr.Session, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		sessions = append(sessions, e.Value.(*entry).sess)
	}
	c.mu.Unlock()
	return cpr.SumCacheStats(sessions...)
}

// getOrLoad returns the session for key, building it with build on a
// miss. Concurrent calls for the same key share one build: exactly one
// caller runs build, the rest block until it finishes and receive its
// result (including its error — a failed build is not cached, so a later
// load retries).
func (c *sessionCache) getOrLoad(key string, build func() (*cpr.Session, error)) (*cpr.Session, loadOutcome, error) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(e)
		sess := e.Value.(*entry).sess
		c.mu.Unlock()
		return sess, loadHit, nil
	}
	if call, ok := c.loading[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.sess, loadCoalesced, call.err
	}
	call := &loadCall{done: make(chan struct{})}
	c.loading[key] = call
	c.mu.Unlock()

	call.sess, call.err = build()

	c.mu.Lock()
	delete(c.loading, key)
	if call.err == nil {
		c.insertLocked(key, call.sess)
	}
	c.mu.Unlock()
	close(call.done)
	return call.sess, loadBuilt, call.err
}
