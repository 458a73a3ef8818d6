package service

import (
	"sync"

	"locshort/internal/graph"
)

// cache is a sharded, singleflight, in-memory LRU keyed by Fingerprint.
//
// Each shard guards a map plus an LRU list with one mutex; a fingerprint's
// shard is its low bits, which FNV-1a mixes well. The list is intrusive:
// an entry carries its own links, so making an entry resident allocates
// nothing.
// Lookups of a completed entry touch the LRU and return immediately.
// Lookups of an in-flight entry join it. A lookup of a missing entry
// installs an in-flight one — the singleflight guarantee — and its caller
// hands that entry to a worker as the fill job (Engine.miss); the worker
// completes it with fill, whoever still waits.
//
// Failed fills are not cached; eviction only considers completed entries,
// so an in-flight entry can never be evicted out from under its waiters.
type cache struct {
	shards  []*cacheShard
	mask    uint64
	perCap  int
	metrics *counters
}

type cacheShard struct {
	mu sync.Mutex
	m  map[Fingerprint]*cacheEntry
	// head is the most recently used resident entry and tail the least;
	// the list holds completed entries only, n of them.
	head, tail *cacheEntry
	n          int
}

// cacheEntry is one key's slot, and its value: a miss allocates it and its
// ready channel and nothing else for the cache. While in flight it is also
// the worker job that fills it: g and req are what the fill materializes
// from, set by the caller that installed the entry before it queues it,
// and cleared by the fill, so a resident entry holds no request.
type cacheEntry struct {
	key   Fingerprint
	ready chan struct{} // closed once val/err are set
	// val is the entry's value, filled in place by the fill; it is handed
	// out as &val once ready is closed with err nil.
	val Cached
	err error

	// prev and next link a resident entry into its shard's LRU list
	// (prev toward the head); resident is true while it is linked.
	prev, next *cacheEntry
	resident   bool

	g   *graph.Graph
	req BuildRequest
}

// value returns the entry's outcome once ready is closed: its value, or
// its error and nil.
//
//locshort:hotpath
func (e *cacheEntry) value() (*Cached, error) {
	if e.err != nil {
		return nil, e.err
	}
	return &e.val, nil
}

// newCache sizes the shard array to a power of two and splits the total
// capacity evenly; capacity is a completed-entry budget per shard.
func newCache(shards, capacity int, metrics *counters) *cache {
	if shards < 1 {
		shards = 1
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	perCap := (capacity + pow - 1) / pow
	if perCap < 1 {
		perCap = 1
	}
	c := &cache{shards: make([]*cacheShard, pow), mask: uint64(pow - 1), perCap: perCap, metrics: metrics}
	for i := range c.shards {
		c.shards[i] = &cacheShard{m: make(map[Fingerprint]*cacheEntry)}
	}
	return c
}

//locshort:hotpath
func (c *cache) shard(key Fingerprint) *cacheShard { return c.shards[uint64(key)&c.mask] }

// pushFront links e as the shard's most recently used entry. Caller holds
// mu.
//
//locshort:hotpath
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev, e.next, e.resident = nil, s.head, true
	if s.head != nil {
		s.head.prev = e
	} else {
		s.tail = e
	}
	s.head = e
	s.n++
}

// unlink takes a resident e out of the shard's list. Caller holds mu.
//
//locshort:hotpath
func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next, e.resident = nil, nil, false
	s.n--
}

// touch makes a resident e the most recently used entry. Caller holds mu.
//
//locshort:hotpath
func (s *cacheShard) touch(e *cacheEntry) {
	if e.resident && s.head != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// join returns key's entry: a completed one (done, a hit that touches the
// LRU), an in-flight one to wait on (a hit too), or — on a miss — a fresh
// in-flight entry this call installed (fresh), which the caller must hand
// to a worker that fills it.
//
//locshort:hotpath
func (c *cache) join(key Fingerprint) (e *cacheEntry, done, fresh bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		select {
		case <-e.ready:
			done = true
			s.touch(e)
		default: // in flight: join the single flight
		}
		s.mu.Unlock()
		c.metrics.hits.Add(1)
		return e, done, false
	}
	e = &cacheEntry{key: key, ready: make(chan struct{})}
	s.m[key] = e
	s.mu.Unlock()
	c.metrics.misses.Add(1)
	return e, false, true
}

// fill completes an in-flight entry, whose val the caller has filled
// unless err is set, and releases its waiters: a value becomes resident,
// evicting the shard's least recently used entries past capacity; an error
// removes the entry, so the next lookup fills afresh.
func (c *cache) fill(e *cacheEntry, err error) {
	s := c.shard(e.key)
	s.mu.Lock()
	e.err = err
	if err != nil {
		delete(s.m, e.key)
	} else {
		s.pushFront(e)
		for s.n > c.perCap {
			old := s.tail
			s.unlink(old)
			delete(s.m, old.key)
			c.metrics.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(e.ready)
}

// get returns the completed entry for key, counting a hit, or false —
// without building, waiting, or allocating. Engine.Build tries it before
// it takes the miss path.
//
//locshort:hotpath
func (c *cache) get(key Fingerprint) (*Cached, bool) {
	v, ok := c.peek(key)
	if ok {
		c.metrics.hits.Add(1)
	}
	return v, ok
}

// peek returns the completed entry for key without building or waiting.
// It touches the LRU but deliberately does not count toward hits/misses:
// those counters track build-or-get traffic (the hit-rate denominator),
// and peek serves job lookups that never could have built.
//
//locshort:hotpath
func (c *cache) peek(key Fingerprint) (*Cached, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
	default:
		return nil, false // still building
	}
	if e.err != nil {
		return nil, false
	}
	s.touch(e)
	return &e.val, true
}

// removeGraph drops every resident completed entry whose shortcut was built
// on graph fp and returns how many were removed. In-flight entries are left
// to complete (their builders hold references the cache cannot revoke);
// since the caller deregisters the graph first, no new builds for fp can
// start, so a raced-in entry is unreachable and ages out of the LRU.
func (c *cache) removeGraph(fp Fingerprint) int {
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for key, e := range s.m {
			if e.resident && e.val.GraphFP == fp {
				s.unlink(e)
				delete(s.m, key)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

// len returns the number of resident completed entries across all shards.
func (c *cache) len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}
