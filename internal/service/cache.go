package service

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/core"
)

// Cache is a sharded LRU over Stage-II query results. The service keys an
// entry by the advisor name and what the advisor's index scores for the
// query (see appendQueryKey), so a cached answer is always
// what retrieval would have produced. Keys are opaque to the cache. The key
// carries the answering index's process-unique identity, so after a reload
// no lookup reads or joins an entry of the replaced index; those entries are
// never used again and leave the LRU first.
//
// Values are []core.Answer slices; they are stored once and returned to
// every caller, so they must be treated as immutable, and so must the rules
// their answers point at, which belong to the advisor that scored them.
//
// Concurrent misses on the same key are deduplicated single-flight style:
// one goroutine runs retrieval, the rest wait for its result.
type Cache struct {
	shards []*cacheShard
	stats  *Stats
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recent
	entries map[string]*list.Element // key -> element whose Value is *cacheEntry
	flights map[string]*flight
}

type cacheEntry struct {
	key string
	val []core.Answer
}

type flight struct {
	done chan struct{}
	val  []core.Answer
	err  error
}

// NewCache creates a cache holding at most capacity entries spread over
// shards (both floored at 1; shards is capped by capacity so every shard
// can hold at least one entry).
func NewCache(capacity, shards int, stats *Stats) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &Cache{shards: make([]*cacheShard, shards), stats: stats}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		capi := base
		if i < extra {
			capi++
		}
		c.shards[i] = &cacheShard{
			cap:     capi,
			ll:      list.New(),
			entries: make(map[string]*list.Element),
			flights: make(map[string]*flight),
		}
	}
	return c
}

// appendQueryKey appends the cache key of a query against adv, registered
// as advisor: the advisor name, a zero byte, then what adv's index scores
// for the terms (core.Advisor.AppendQueryKey). Queries that differ only in
// terms the guide never uses share one key; a key never matches a lookup
// against another advisor or another build of this one. Names hold no
// zero byte, so the layout is unambiguous.
func appendQueryKey(b []byte, adv *core.Advisor, advisor string, terms []string) []byte {
	return adv.AppendQueryKey(append(append(b, advisor...), 0), terms)
}

// queryKeyLen is the length of the normalized query written out as the
// term-string key of QueryKeyFull(advisor, "", true, terms), computed
// without building it: the size boundQuery limits.
func queryKeyLen(advisor string, terms []string) int {
	n := len(advisor) + 1 + max(len(terms)-1, 0)
	for _, t := range terms {
		n += len(t)
	}
	return n
}

// QueryKeyFull builds a term-string cache key: the advisor name, a zero
// byte, then the normalized terms joined by spaces. prune=false maps to a
// disjoint space under the same advisor prefix ("\x00\x02" after the
// advisor name). The backend is ignored: there is one scoring model.
//
// Deprecated: the service keys its cache by what the advisor's index
// scores (appendQueryKey), not by terms. It stays only because the
// benchmark module still calls it.
func QueryKeyFull(advisor, _ string, prune bool, terms []string) string {
	var b strings.Builder
	b.Grow(queryKeyLen(advisor, terms) + 1)
	b.WriteString(advisor)
	b.WriteByte(0)
	if !prune {
		b.WriteByte(2)
	}
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	return b.String()
}

// shardFor places key by its 32-bit FNV-1a hash, computed inline so a
// lookup allocates nothing.
func (c *Cache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the cached value for key and counts a hit, or reports false
// and counts nothing: a caller that misses goes on to GetOrCompute, which
// counts the lookup's outcome once. Get never waits for an in-flight
// computation.
func (c *Cache) Get(key string) ([]core.Answer, bool) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	v, ok := sh.getLocked(key)
	sh.mu.Unlock()
	if ok {
		c.stats.hits.Add(1)
	}
	return v, ok
}

// getLocked returns the entry for key, marking it most recently used.
func (sh *cacheShard) getLocked(key string) ([]core.Answer, bool) {
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// GetOrCompute returns the cached value for key, computing and inserting it
// on a miss. hit reports whether the value came from the cache or from
// another goroutine's in-flight computation (both avoid running compute).
// Errors from compute are propagated to all waiters and never cached.
func (c *Cache) GetOrCompute(key string, compute func() ([]core.Answer, error)) (val []core.Answer, hit bool, err error) {
	sh := c.shardFor(key)
	sh.mu.Lock()
	if v, ok := sh.getLocked(key); ok {
		sh.mu.Unlock()
		c.stats.hits.Add(1)
		return v, true, nil
	}
	if fl, ok := sh.flights[key]; ok {
		sh.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, false, fl.err
		}
		// served without running retrieval: a single-flight hit
		c.stats.hits.Add(1)
		return fl.val, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	sh.flights[key] = fl
	sh.mu.Unlock()

	c.stats.misses.Add(1)
	fl.val, fl.err = compute()
	close(fl.done)

	sh.mu.Lock()
	delete(sh.flights, key)
	if fl.err == nil {
		sh.insertLocked(key, fl.val, c.stats)
	}
	sh.mu.Unlock()
	return fl.val, false, fl.err
}

// insertLocked adds an entry, evicting from the tail past capacity. The key
// is absent: a key has at most one flight at a time, registered while the
// key was missing, and only that flight inserts it.
func (sh *cacheShard) insertLocked(key string, val []core.Answer, stats *Stats) {
	sh.entries[key] = sh.ll.PushFront(&cacheEntry{key: key, val: val})
	for sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.entries, back.Value.(*cacheEntry).key)
		stats.evictions.Add(1)
	}
}

// Len returns the number of cached entries across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}
