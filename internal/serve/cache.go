// Package serve is the concurrent prediction-serving subsystem: a sharded
// CLOCK decision cache generalising the single-shape runtime cache of §III-C,
// a decision engine over reusable buffers (one decision path: cache probe,
// rank, put — a batch is that path once per shape), and an HTTP front end
// (server + client) so a trained library can answer thread-selection queries
// over the wire. The cache is a memo of calls that happened: it starts empty
// at boot and after every hot reload, and live traffic fills it.
//
// The paper's Fig 3 runtime path caches only the last GEMM shape behind one
// mutex; under multi-tenant traffic (many goroutines, mixed shapes) that
// serializes every selection on the lock and thrashes the one-entry cache.
// Here decisions are memoised per shape in power-of-two shards, each an
// open-addressed table that readers probe without a lock (a sequence word
// tells them whether a writer was at work) and writers change under the
// shard's mutex, so concurrent mixed-shape prediction scales with the core
// count and a repeated shape costs one probe.
package serve

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

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

// A cell's meta word: whether the cell holds an entry, whether that entry
// was read since the clock hand last passed it, the entry's op, and its
// thread count, signed, in the top 48 bits.
const (
	metaUsed    = 1 << 0
	metaRef     = 1 << 1
	metaOpShift = 8
	metaKey     = metaUsed | 0xff<<metaOpShift // the bits a probe compares
	metaThreads = 16                           // shift of the thread count
)

func packMeta(op Op, threads int) uint64 {
	return metaUsed | uint64(op)<<metaOpShift | uint64(int64(threads))<<metaThreads
}

func threadsOf(meta uint64) int { return int(int64(meta) >> metaThreads) }

// cell is one slot of a shard's table. Every word is atomic so that a reader
// holding no lock can probe while a writer changes the table; the shard's
// sequence word tells the reader whether what it read was whole. The
// dimensions are full words, so shapes above MaxInt32 key exactly.
type cell struct {
	m, k, n, meta atomic.Uint64
}

// shard is one power-of-two slice of the cache: an open-addressed table,
// twice the shard's capacity in size, with linear probing from the hash bits
// above the shard bits, and a CLOCK hand over its cells. Readers take no
// lock: they read seq, probe, and read seq again, and take mu only when a
// writer was at work. Writers hold mu and keep seq odd while they change the
// table. Steady-state operation allocates nothing.
type shard struct {
	seq   atomic.Uint64 // odd while a put changes the table
	mu    sync.Mutex
	cells []cell
	home  []uint32 // each used cell's probe start, so a deletion never rehashes; under mu
	mask  uint64   // len(cells) - 1
	hand  uint64   // the next cell the clock looks at; under mu
	count int      // used cells; under mu
	limit int      // the shard's capacity
}

func newShard(capacity int) *shard {
	return &shard{
		cells: make([]cell, 2*capacity),
		home:  make([]uint32, 2*capacity),
		mask:  uint64(2*capacity - 1),
		limit: capacity,
	}
}

// find probes for key from its home cell, h & mask (h is the key's hash
// without the shard bits), and returns the cell index and its meta word, or -1 when an empty cell ends the probe first. Without mu a
// concurrent put can tear what it reads; the caller's sequence check
// discards that. The bound keeps a torn view from probing forever.
func (s *shard) find(key shapeKey, h uint64) (int, uint64) {
	want := metaUsed | uint64(key.op)<<metaOpShift
	i := h & s.mask
	for range len(s.cells) {
		c := &s.cells[i]
		w := c.meta.Load()
		if w&metaUsed == 0 {
			break
		}
		if w&metaKey == want && c.m.Load() == uint64(key.m) && c.k.Load() == uint64(key.k) && c.n.Load() == uint64(key.n) {
			return int(i), w
		}
		i = (i + 1) & s.mask
	}
	return -1, 0
}

// get returns key's thread count. When touch is set and the entry's
// referenced bit is clear, it sets it, so the hand passes the entry over
// once; an entry already referenced is not written, so repeated hits on a
// shape write no shared memory.
//
//adsala:zeroalloc
func (s *shard) get(key shapeKey, h uint64, touch bool) (int, bool) {
	if seq := s.seq.Load(); seq&1 == 0 {
		i, w := s.find(key, h)
		if s.seq.Load() == seq {
			if i < 0 {
				return 0, false
			}
			if touch && w&metaRef == 0 {
				// Lost to a concurrent put, the bit is only a hint.
				s.cells[i].meta.CompareAndSwap(w, w|metaRef)
			}
			return threadsOf(w), true
		}
	}
	// A put was at work: wait for it rather than spin.
	s.mu.Lock()
	defer s.mu.Unlock()
	i, w := s.find(key, h)
	if i < 0 {
		return 0, false
	}
	if touch && w&metaRef == 0 {
		s.cells[i].meta.Or(metaRef)
	}
	return threadsOf(w), true
}

func (s *shard) put(key shapeKey, h uint64, threads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq.Add(1)
	defer s.seq.Add(1)
	if i, w := s.find(key, h); i >= 0 {
		s.cells[i].meta.Store(w&metaRef | packMeta(key.op, threads))
		return
	}
	if s.count == s.limit {
		s.evict()
	}
	i := h & s.mask
	for s.cells[i].meta.Load()&metaUsed != 0 {
		i = (i + 1) & s.mask
	}
	c := &s.cells[i]
	c.m.Store(uint64(key.m))
	c.k.Store(uint64(key.k))
	c.n.Store(uint64(key.n))
	c.meta.Store(packMeta(key.op, threads))
	s.home[i] = uint32(h & s.mask)
	s.count++
}

// evict removes one entry: the hand clears referenced bits until it reaches
// an entry whose bit is clear. Readers may set bits again behind it, so
// after two turns of the table it takes the entry it stands on. The hand
// turns against the probe direction, so it meets each run of used cells at
// its end, where a deletion has nothing to shift back. Turning with the
// probes it would meet each run at its start, and the runs just ahead of it,
// holding the oldest entries, are the longest: every deletion would scan a
// whole run. Caller holds mu.
func (s *shard) evict() {
	for step := 0; ; step++ {
		i := s.hand
		w := s.cells[i].meta.Load()
		if w&metaUsed != 0 {
			if w&metaRef == 0 || step >= 2*len(s.cells) {
				s.remove(i)
				return
			}
			s.cells[i].meta.And(^uint64(metaRef))
		}
		s.hand = (i - 1) & s.mask
	}
}

// remove empties cell i by backward-shift deletion: each later entry of the
// probe run whose home does not lie between the hole and itself moves back
// into the hole, so no probe ever needs a tombstone. Caller holds mu.
func (s *shard) remove(i uint64) {
	for j := (i + 1) & s.mask; ; j = (j + 1) & s.mask {
		cj := &s.cells[j]
		w := cj.meta.Load()
		if w&metaUsed == 0 {
			break
		}
		if (j-uint64(s.home[j]))&s.mask < (j-i)&s.mask {
			continue // its home lies after the hole
		}
		ci := &s.cells[i]
		ci.m.Store(cj.m.Load())
		ci.k.Store(cj.k.Load())
		ci.n.Store(cj.n.Load())
		ci.meta.Store(w)
		s.home[i] = s.home[j]
		i = j
	}
	s.cells[i].meta.Store(0)
	s.count--
}

func (s *shard) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Cache is a sharded, power-of-two-sized CLOCK decision cache mapping
// (operation, shape) to the chosen thread count. Shards are selected by
// shape hash; each is an open-addressed table read without a lock and
// written under its own mutex, so the cache is safe for heavy concurrent
// use and a hit costs one probe. A full shard evicts the first entry the
// clock hand finds unread since its last pass, so any working set no larger
// than a shard's capacity stays resident. It keeps no counters: hits and
// misses are booked by the engine, per op.
type Cache struct {
	shards    []*shard
	shardMask uint64
	shardBits uint // the hash bits the shard index takes; a probe starts from the rest
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
		shardBits: uint(bits.TrailingZeros(uint(shards))),
		capacity:  capacity,
	}
	per := capacity / shards
	for i := range c.shards {
		c.shards[i] = newShard(per)
	}
	return c
}

// Get returns the cached decision for an op over an m×k×n shape, marking it
// referenced so that the clock hand passes it over once.
//
//adsala:zeroalloc
func (c *Cache) Get(op Op, m, k, n int) (threads int, ok bool) {
	key := shapeKey{op, m, k, n}
	h := key.hash()
	return c.shards[h&c.shardMask].get(key, h>>c.shardBits, true)
}

// peek returns the cached decision without marking it referenced — the
// read-only introspection path (Engine.CachedChoice), which must not
// distort retention.
//
//adsala:zeroalloc
func (c *Cache) peek(op Op, m, k, n int) (threads int, ok bool) {
	key := shapeKey{op, m, k, n}
	h := key.hash()
	return c.shards[h&c.shardMask].get(key, h>>c.shardBits, false)
}

// Put records the decision for an op over an m×k×n shape. When the target
// shard is full it first evicts the entry the clock hand settles on.
func (c *Cache) Put(op Op, m, k, n, threads int) {
	key := shapeKey{op, m, k, n}
	h := key.hash()
	c.shards[h&c.shardMask].put(key, h>>c.shardBits, threads)
}

// Capacity returns the total entry capacity across shards.
func (c *Cache) Capacity() int { return c.capacity }

// Shards returns the shard count.
func (c *Cache) Shards() int { return len(c.shards) }
