package service

import (
	"container/list"
	"context"
	"sync"
)

// cache is a sharded, singleflight, in-memory LRU keyed by Fingerprint.
//
// Each shard guards a map plus an LRU list with one mutex; a fingerprint's
// shard is its low bits, which FNV-1a mixes well.
// Lookups of a completed entry touch the LRU and return immediately.
// Lookups of an in-flight entry wait for the single builder (or the
// caller's context, whichever finishes first). Lookups of a missing entry
// install an in-flight marker and start exactly one builder goroutine —
// the singleflight guarantee — which the caller can abandon on context
// cancellation without aborting the build: the result still lands in the
// cache for everyone who asks next.
//
// Failed builds are not cached; eviction only considers completed entries,
// so an in-flight build can never be evicted out from under its waiters.
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

type cacheEntry struct {
	key   Fingerprint
	ready chan struct{} // closed once val/err are set
	val   *Cached
	err   error
	elem  *list.Element // non-nil once completed and resident
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

// getOrBuild returns the cached value for key, waiting on an in-flight
// build or starting one via build. ctx cancels the wait, never the build.
// hit reports whether the entry was already complete at lookup — the
// latency-relevant distinction: singleflight joiners wait out most of a
// build, so they report hit=false even though they count as cache hits.
//
//locshort:hotpath
func (c *cache) getOrBuild(ctx context.Context, key Fingerprint, build func() (*Cached, error)) (v *Cached, hit bool, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		select {
		case <-e.ready: // completed: hit
			if e.elem != nil {
				s.lru.MoveToFront(e.elem)
			}
			s.mu.Unlock()
			c.metrics.hits.Add(1)
			return e.val, true, e.err
		default: // in flight: join the single flight
			s.mu.Unlock()
			c.metrics.hits.Add(1)
			select {
			case <-e.ready:
				return e.val, false, e.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	s.m[key] = e
	s.mu.Unlock()
	c.metrics.misses.Add(1)

	//locshort:alloc-ok miss path: the build this goroutine runs dwarfs the closure
	go func() {
		val, err := build()
		s.mu.Lock()
		e.val, e.err = val, err
		if err != nil {
			delete(s.m, key) // failed builds are not cached
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
	}()

	select {
	case <-e.ready:
		return e.val, false, e.err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// get returns the completed entry for key, counting a hit, or false —
// without building, waiting, or allocating. Engine.Build tries it before
// it makes getOrBuild's miss closure.
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
