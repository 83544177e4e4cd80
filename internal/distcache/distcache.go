// Package distcache implements a concurrent, sharded, epoch-aware LRU
// cache of junction-pair network distances. On a fixed road network,
// trajectory-similarity workloads are dominated by repeated shortest-
// path lookups between the same endpoint junctions — flows start and
// end at the same hotspots — so the same distances recur across flow
// pairs, across Phase 3 runs, and across streaming ingests.
//
// # Keying and correctness
//
// A cache instance is scoped to one (graph fingerprint, shortest-path
// kernel, traversal mode) triple — the Scope string. Entries within a
// scope are keyed by the canonical (min, max) junction pair and carry
// the ε bound they were computed under (their "bound class"):
//
//   - a finite distance is the exact network distance and is valid for
//     any ε;
//   - a +Inf distance means "farther than the entry's bound", which
//     answers an ε-neighborhood probe only when ε ≤ bound.
//
// Lookups state the bound they need; entries that cannot answer are
// misses. Storing merges monotonically: a finite distance supersedes a
// +Inf sentinel, and a +Inf sentinel only raises the bound, so
// concurrent writers racing on one key converge to the most
// informative entry regardless of interleaving. Because every value a
// hit returns is one a fresh shortest-path computation in the same
// scope would also return (or is interchangeable with it under every
// ε-predicate the bound admits), clustering output is byte-identical
// with the cache on or off.
//
// # Epochs
//
// SetScope with a new scope string advances the cache epoch instead of
// clearing shard maps: stale entries become unreadable immediately
// (O(1) invalidation, no pause) and are reclaimed lazily as lookups
// touch them or the LRU evicts them. This is how a server invalidates
// by fingerprint on graph swap without blocking the request path.
//
// # Concurrency
//
// The key space is striped across shards, each with its own mutex and
// LRU list; counters are atomics. There is no global lock on the hot
// path, so concurrent callers share one cache safely.
package distcache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/obs"
)

// DefaultEntries is the entry budget New applies when the caller
// passes a non-positive one: at 48 bytes an entry, roughly 12 MiB.
const DefaultEntries = 1 << 18

// shardCount stripes the key space; a power of two so shard selection
// is a mask. 64 shards keep cross-worker contention negligible at the
// worker counts conc resolves (GOMAXPROCS-bounded).
const shardCount = 64

// entry is one cached junction-pair distance. Dist is exact when
// finite; +Inf means "farther than Bound". Entries whose epoch is
// behind the cache's are unreadable (their scope is gone).
type entry struct {
	key        uint64
	dist       float64
	bound      float64
	epoch      uint64
	prev, next *entry // intrusive LRU list; head is most recent
}

// shard is one stripe: a map index plus an LRU list under one mutex.
type shard struct {
	mu   sync.Mutex
	m    map[uint64]*entry
	head *entry
	tail *entry
	cap  int
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int64
	Capacity  int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Budget is an entry budget shared by several caches: each NewShared
// cache draws on it when growing and returns to it when shrinking, so
// the sum of live entries across all member caches never exceeds the
// budget — one tenant's hot working set cannot multiply the process's
// cache memory by the tenant count. A nil *Budget never limits
// anything, and a single cache holding the whole budget behaves
// exactly like an unshared New cache (its local shard capacities bind
// first).
type Budget struct {
	total int64
	used  atomic.Int64
}

// NewBudget creates a budget of the given total entries, rounded the
// same way New rounds a cache capacity (so a lone cache over the full
// budget is bound by its shards, never by the budget). Non-positive
// selects DefaultEntries.
func NewBudget(entries int) *Budget {
	if entries <= 0 {
		entries = DefaultEntries
	}
	perShard := entries / shardCount
	if perShard < 1 {
		perShard = 1
	}
	return &Budget{total: int64(perShard * shardCount)}
}

// Total returns the budget's entry ceiling.
func (b *Budget) Total() int {
	if b == nil {
		return 0
	}
	return int(b.total)
}

// Used returns the entries currently drawn across all member caches.
func (b *Budget) Used() int64 {
	if b == nil {
		return 0
	}
	return b.used.Load()
}

// reserve claims one entry; false when the budget is spent. Nil-safe
// (always granted).
func (b *Budget) reserve() bool {
	if b == nil {
		return true
	}
	for {
		u := b.used.Load()
		if u >= b.total {
			return false
		}
		if b.used.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

// release returns n entries to the budget. Nil-safe.
func (b *Budget) release(n int64) {
	if b != nil {
		b.used.Add(-n)
	}
}

// Cache is a sharded, epoch-aware LRU distance cache. All methods are
// safe for concurrent use. A nil *Cache is valid: lookups miss, stores
// are dropped, and stats are zero, so call sites need no nil guards.
type Cache struct {
	shards   [shardCount]shard
	capacity int

	// budget is the optional cross-cache entry budget (see NewShared);
	// nil for an unshared cache.
	budget *Budget

	scopeMu sync.Mutex
	scope   string
	epoch   atomic.Uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64

	// Pre-resolved obs handles; nil without Instrument, making every
	// recording a no-op.
	mHits      *obs.Counter
	mMisses    *obs.Counter
	mEvictions *obs.Counter
	mEntries   *obs.Gauge

	// faults is the optional injector simulating cache pressure:
	// fault.CacheLookup forces misses, fault.CacheStore drops writes
	// and evicts the LRU tail (an eviction storm). Both degradations
	// are output-safe — a miss or a lost entry only costs a recompute.
	faults *fault.Injector
}

// New creates a cache bounded to the given total entry budget; a
// non-positive budget selects DefaultEntries. The budget is divided
// evenly across the shards (at least one entry each).
func New(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	perShard := entries / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{capacity: perShard * shardCount}
	for i := range c.shards {
		c.shards[i] = shard{m: make(map[uint64]*entry), cap: perShard}
	}
	return c
}

// NewShared creates a cache like New whose growth additionally draws
// on budget, shared with other NewShared caches (see Budget). Each
// cache keeps its full local capacity — a lone tenant can use the
// whole budget — but once the shared budget is spent a store that
// would grow the cache recycles the shard's own LRU tail instead (or
// is dropped when the shard is empty), so the cross-cache entry sum
// stays bounded. A nil budget is exactly New.
func NewShared(entries int, budget *Budget) *Cache {
	c := New(entries)
	c.budget = budget
	return c
}

// Instrument registers the cache's series in reg: hit/miss/evict
// counters and an entry-count gauge, all carrying the given labels
// (e.g. a session label, so per-tenant caches expose distinct
// series). The counters mirror the internal atomics from the moment
// of registration (they are recorded alongside, not sampled), so
// /metrics scrapes see live values. A nil registry detaches.
// Nil-safe.
func (c *Cache) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if c == nil {
		return
	}
	c.mHits = reg.Counter("distcache_hits_total", labels...)
	c.mMisses = reg.Counter("distcache_misses_total", labels...)
	c.mEvictions = reg.Counter("distcache_evictions_total", labels...)
	c.mEntries = reg.Gauge("distcache_entries", labels...)
	c.mEntries.Set(float64(c.entries.Load()))
}

// InjectFaults attaches a fault injector (nil detaches). Injected
// cache faults degrade hit rates, never correctness: every path a
// forced miss or dropped store takes is a path a cold cache takes
// anyway. Nil-safe.
func (c *Cache) InjectFaults(in *fault.Injector) {
	if c == nil {
		return
	}
	c.faults = in
}

// Key packs a junction pair into the canonical cache key (order-
// insensitive, matching the undirected Phase 3 distance).
func Key(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// SetScope binds the cache to a scope (graph fingerprint + kernel +
// mode). If the scope changed, the epoch advances and every existing
// entry becomes unreadable immediately; entries are reclaimed lazily.
// Calling with the current scope is free. Nil-safe.
func (c *Cache) SetScope(scope string) {
	if c == nil {
		return
	}
	c.scopeMu.Lock()
	defer c.scopeMu.Unlock()
	if c.scope == scope {
		return
	}
	c.scope = scope
	c.epoch.Add(1)
}

// Scope returns the current scope string ("" before the first
// SetScope). Nil-safe.
func (c *Cache) Scope() string {
	if c == nil {
		return ""
	}
	c.scopeMu.Lock()
	defer c.scopeMu.Unlock()
	return c.scope
}

func (c *Cache) shardFor(key uint64) *shard {
	// Fibonacci hashing spreads the packed pair bits across shards.
	return &c.shards[(key*0x9e3779b97f4a7c15)>>(64-6)]
}

// Lookup returns the cached distance for key if an entry exists that
// can answer a probe with the given ε bound (use +Inf for an exact,
// unbounded query). A finite return is the exact network distance; a
// +Inf return means "farther than bound". Nil-safe (always a miss).
func (c *Cache) Lookup(key uint64, bound float64) (float64, bool) {
	if c == nil {
		return 0, false
	}
	if c.faults.Hit(fault.CacheLookup) {
		// Injected cache pressure: force a miss. The caller recomputes,
		// which is exactly the cold-cache path.
		c.miss()
		return 0, false
	}
	ep := c.epoch.Load()
	s := c.shardFor(key)
	s.mu.Lock()
	e := s.m[key]
	if e == nil {
		s.mu.Unlock()
		c.miss()
		return 0, false
	}
	if e.epoch != ep {
		// Stale scope: reclaim the slot now, while we hold the lock.
		s.remove(e)
		delete(s.m, key)
		s.mu.Unlock()
		c.entries.Add(-1)
		c.budget.release(1)
		c.mEntries.Add(-1)
		c.miss()
		return 0, false
	}
	if math.IsInf(e.dist, 1) && bound > e.bound {
		// The entry only knows "farther than e.bound", which cannot
		// answer a wider probe.
		s.mu.Unlock()
		c.miss()
		return 0, false
	}
	d := e.dist
	s.moveToFront(e)
	s.mu.Unlock()
	c.hit()
	return d, true
}

// Store records a computed distance for key: dist is the result of a
// shortest-path computation pruned at bound (+Inf bound for an exact
// computation). Merging is monotone — finite beats +Inf, and +Inf only
// ever raises the bound — so racing writers converge. Nil-safe (drop).
func (c *Cache) Store(key uint64, dist, bound float64) {
	if c == nil {
		return
	}
	ep := c.epoch.Load()
	s := c.shardFor(key)
	if c.faults.Hit(fault.CacheStore) {
		// Injected eviction storm: drop the write and shed the shard's
		// LRU tail, shrinking the working set under the budget.
		s.mu.Lock()
		if old := s.tail; old != nil {
			s.remove(old)
			delete(s.m, old.key)
			s.mu.Unlock()
			c.entries.Add(-1)
			c.budget.release(1)
			c.mEntries.Add(-1)
			c.evictions.Add(1)
			c.mEvictions.Inc()
			return
		}
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	if e := s.m[key]; e != nil {
		if e.epoch != ep {
			e.dist, e.bound, e.epoch = dist, bound, ep
		} else if math.IsInf(e.dist, 1) {
			if !math.IsInf(dist, 1) {
				e.dist, e.bound = dist, bound
			} else if bound > e.bound {
				e.bound = bound
			}
		}
		// A finite entry is exact; nothing can improve it.
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	var evicted bool
	if len(s.m) >= s.cap {
		old := s.tail
		s.remove(old)
		delete(s.m, old.key)
		evicted = true
	} else if !c.budget.reserve() {
		// The shared budget is spent by sibling caches (a lone cache
		// fills all its shards before the budget runs out, so this
		// branch never fires unshared): recycle this shard's LRU tail
		// instead of growing, or drop the write when there is nothing
		// to recycle.
		if old := s.tail; old != nil {
			s.remove(old)
			delete(s.m, old.key)
			evicted = true
		} else {
			s.mu.Unlock()
			return
		}
	}
	e := &entry{key: key, dist: dist, bound: bound, epoch: ep}
	s.m[key] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted {
		c.evictions.Add(1)
		c.mEvictions.Inc()
	} else {
		c.entries.Add(1)
		c.mEntries.Add(1)
	}
}

// Len returns the number of occupied slots (including not-yet-
// reclaimed stale entries). Nil-safe.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return int(c.entries.Load())
}

// Cap returns the total entry budget. Nil-safe.
func (c *Cache) Cap() int {
	if c == nil {
		return 0
	}
	return c.capacity
}

// CacheStats snapshots the counters. Nil-safe (all zero).
func (c *Cache) CacheStats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Capacity:  c.capacity,
	}
}

func (c *Cache) hit() {
	c.hits.Add(1)
	c.mHits.Inc()
}

func (c *Cache) miss() {
	c.misses.Add(1)
	c.mMisses.Inc()
}

// --- intrusive LRU list (shard lock held) ---

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) remove(e *entry) {
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
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}
