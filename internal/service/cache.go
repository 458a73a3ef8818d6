package service

import (
	"container/list"
	"sync"

	"locshort/internal/graph"
)

// cache is a sharded, singleflight, in-memory LRU keyed by Fingerprint.
//
// Each shard guards a map plus an LRU list with one mutex; a fingerprint's
// shard is its low bits, which FNV-1a mixes well.
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
	mu  sync.Mutex
	m   map[Fingerprint]*cacheEntry
	lru *list.List // front = most recently used; completed entries only
}

// cacheEntry is one key's slot. While in flight it is also the worker job
// that fills it: g and req are what the fill materializes from, set by the
// caller that installed the entry before it queues it, and cleared by the
// fill, so a resident entry holds no request.
type cacheEntry struct {
	key   Fingerprint
	ready chan struct{} // closed once val/err are set
	val   *Cached
	err   error
	elem  *list.Element // non-nil once completed and resident

	g   *graph.Graph
	req BuildRequest
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
		c.shards[i] = &cacheShard{m: make(map[Fingerprint]*cacheEntry), lru: list.New()}
	}
	return c
}

//locshort:hotpath
func (c *cache) shard(key Fingerprint) *cacheShard { return c.shards[uint64(key)&c.mask] }

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
			if e.elem != nil {
				s.lru.MoveToFront(e.elem)
			}
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

// fill completes an in-flight entry and releases its waiters: a value
// becomes resident, evicting the shard's least recently used entries past
// capacity; an error removes the entry, so the next lookup fills afresh.
func (c *cache) fill(e *cacheEntry, val *Cached, err error) {
	s := c.shard(e.key)
	s.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		delete(s.m, e.key)
	} else {
		e.elem = s.lru.PushFront(e)
		for s.lru.Len() > c.perCap {
			old := s.lru.Back()
			s.lru.Remove(old)
			delete(s.m, old.Value.(*cacheEntry).key)
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
	s.lru.MoveToFront(e.elem)
	return e.val, true
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
			select {
			case <-e.ready:
			default:
				continue // in flight
			}
			if e.err == nil && e.val.GraphFP == fp {
				s.lru.Remove(e.elem)
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
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}
