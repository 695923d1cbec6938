// Package serve is the concurrent prediction-serving subsystem: a sharded
// LRU decision cache generalising the single-shape runtime cache of §III-C,
// a decision engine over reusable buffers (one decision path: cache probe,
// rank, put — a batch is that path once per shape), and an HTTP front end
// (server + client) so a trained library can answer thread-selection queries
// over the wire. The cache is a memo of calls that happened: it starts empty
// at boot and after every hot reload, and live traffic fills it.
//
// The paper's Fig 3 runtime path caches only the last GEMM shape behind one
// mutex; under multi-tenant traffic (many goroutines, mixed shapes) that
// serializes every selection on the lock and thrashes the one-entry cache.
// Here decisions are memoised per shape in power-of-two shards with
// per-shard locking, so concurrent mixed-shape prediction scales with the
// core count.
package serve

import "sync"

// shapeKey identifies one (operation, shape) configuration in the decision
// cache. Keying on the op keeps SYRK and GEMM decisions for the same shape
// triple distinct (their cost profiles — and eventually their models —
// differ).
type shapeKey struct {
	op      Op
	m, k, n int
}

// hash mixes the op and the three dimensions into a well-distributed 64-bit
// value (splitmix64-style finalisation over a combined word).
func (s shapeKey) hash() uint64 {
	h := uint64(s.m)*0x9e3779b97f4a7c15 ^ uint64(s.k)*0xbf58476d1ce4e5b9 ^ uint64(s.n)*0x94d049bb133111eb
	h ^= uint64(s.op) * 0xd6e8feb86659fd93
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// entry is one slot of a shard's intrusive LRU list.
type entry struct {
	key        shapeKey
	threads    int
	prev, next int // indices into the shard's entries; -1 = none
}

// shard is one power-of-two slice of the cache: a map from shape to slot
// plus an intrusive doubly-linked LRU list over a fixed slot array, so
// steady-state operation allocates nothing.
type shard struct {
	mu      sync.Mutex
	slots   map[shapeKey]int
	entries []entry
	head    int // most recently used; -1 when empty
	tail    int // least recently used; -1 when empty
	free    []int
}

func newShard(capacity int) *shard {
	s := &shard{
		slots:   make(map[shapeKey]int, capacity),
		entries: make([]entry, capacity),
		head:    -1,
		tail:    -1,
		free:    make([]int, capacity),
	}
	for i := range s.free {
		s.free[i] = capacity - 1 - i // pop from the back: slot 0 first
	}
	return s
}

// unlink removes slot i from the LRU list. Caller holds mu.
func (s *shard) unlink(i int) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// pushFront makes slot i the most recently used. Caller holds mu.
func (s *shard) pushFront(i int) {
	e := &s.entries[i]
	e.prev, e.next = -1, s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *shard) get(key shapeKey) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.slots[key]
	if !ok {
		return 0, false
	}
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
	return s.entries[i].threads, true
}

func (s *shard) put(key shapeKey, threads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.slots[key]; ok {
		s.entries[i].threads = threads
		if s.head != i {
			s.unlink(i)
			s.pushFront(i)
		}
		return
	}
	var i int
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = s.tail // evict the least recently used
		s.unlink(i)
		delete(s.slots, s.entries[i].key)
	}
	s.entries[i] = entry{key: key, threads: threads}
	s.slots[key] = i
	s.pushFront(i)
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Cache is a sharded, power-of-two-sized LRU decision cache mapping
// (operation, shape) to the chosen thread count. Shards are selected by
// shape hash and each has its own lock, so the cache is safe for heavy
// concurrent use. It keeps no counters: hits and misses are booked by the
// engine, per op.
type Cache struct {
	shards    []*shard
	shardMask uint64
	capacity  int
}

// Sizing bounds: decisions are a few words each, so a million entries is
// far beyond any realistic working set; the clamps also keep nextPow2 away
// from shift overflow on absurd operator-supplied values.
const (
	maxCapacity = 1 << 20
	maxShards   = 1 << 10
)

// nextPow2 rounds v up to the next power of two (minimum 1). v must be at
// most the largest representable power of two (callers clamp well below).
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// NewCache returns a decision cache with approximately the given total
// capacity spread over the given shard count. Both are rounded up to powers
// of two and clamped to sane bounds (1..1M entries, 1..1024 shards); zero
// or negative values select the defaults (4096 entries, 16 shards). Shards
// never exceed the capacity.
func NewCache(capacity, shards int) *Cache {
	if capacity <= 0 {
		capacity = 4096
	}
	if capacity > maxCapacity {
		capacity = maxCapacity
	}
	if shards <= 0 {
		shards = 16
	}
	if shards > maxShards {
		shards = maxShards
	}
	capacity = nextPow2(capacity)
	shards = nextPow2(shards)
	if shards > capacity {
		shards = capacity
	}
	c := &Cache{
		shards:    make([]*shard, shards),
		shardMask: uint64(shards - 1),
		capacity:  capacity,
	}
	per := capacity / shards
	for i := range c.shards {
		c.shards[i] = newShard(per)
	}
	return c
}

// Get returns the cached decision for an op over an m×k×n shape, promoting
// it to most recently used.
func (c *Cache) Get(op Op, m, k, n int) (threads int, ok bool) {
	key := shapeKey{op, m, k, n}
	return c.shards[key.hash()&c.shardMask].get(key)
}

// peek returns the cached decision without touching the LRU order — the
// read-only introspection path (Engine.CachedChoice), which must not
// distort retention.
func (c *Cache) peek(op Op, m, k, n int) (threads int, ok bool) {
	key := shapeKey{op, m, k, n}
	s := c.shards[key.hash()&c.shardMask]
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.slots[key]
	if !ok {
		return 0, false
	}
	return s.entries[i].threads, true
}

// Put records the decision for an op over an m×k×n shape, evicting the least
// recently used entry of the target shard when it is full.
func (c *Cache) Put(op Op, m, k, n, threads int) {
	key := shapeKey{op, m, k, n}
	c.shards[key.hash()&c.shardMask].put(key, threads)
}

// Capacity returns the total entry capacity across shards.
func (c *Cache) Capacity() int { return c.capacity }

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }
