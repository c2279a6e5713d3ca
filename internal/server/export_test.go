package server

// Figure2aSpec is the policy specification the package's tests repair.
const Figure2aSpec = figure2aSpec

// SessionEntries sums the solve-cache entries the cached sessions hold,
// each session's own count, so an entry a delta shares with its base
// counts once per session that holds it.
func (s *Server) SessionEntries() int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	n := 0
	for e := s.cache.lru.Front(); e != nil; e = e.Next() {
		n += e.Value.(*entry).sess.CacheStats().Entries
	}
	return n
}
