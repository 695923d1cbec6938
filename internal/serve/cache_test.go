package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ops"
)

func TestCacheSizing(t *testing.T) {
	c := NewCache(0, 0)
	if c.Capacity() != 4096 || c.Shards() != 16 {
		t.Errorf("defaults: cap %d shards %d", c.Capacity(), c.Shards())
	}
	c = NewCache(100, 3)
	if c.Capacity() != 128 || c.Shards() != 4 {
		t.Errorf("rounding: cap %d shards %d, want 128/4", c.Capacity(), c.Shards())
	}
	// Shards clamp to capacity.
	c = NewCache(2, 64)
	if c.Shards() != 2 {
		t.Errorf("shards %d > capacity 2", c.Shards())
	}
	// Absurd sizes clamp instead of overflowing or hanging.
	c = NewCache(math.MaxInt, math.MaxInt)
	if c.Capacity() != maxCapacity || c.Shards() != maxShards {
		t.Errorf("clamp: cap %d shards %d, want %d/%d", c.Capacity(), c.Shards(), maxCapacity, maxShards)
	}
}

func TestCacheGetPut(t *testing.T) {
	c := NewCache(64, 4)
	if _, ok := c.Get(OpGEMM, 1, 2, 3); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(OpGEMM, 1, 2, 3, 8)
	if th, ok := c.Get(OpGEMM, 1, 2, 3); !ok || th != 8 {
		t.Fatalf("got (%d,%v), want (8,true)", th, ok)
	}
	// Overwrite in place.
	c.Put(OpGEMM, 1, 2, 3, 16)
	if th, _ := c.Get(OpGEMM, 1, 2, 3); th != 16 {
		t.Fatalf("overwrite: got %d, want 16", th)
	}
	if entries(c) != 1 {
		t.Fatalf("len %d, want 1", entries(c))
	}
	// Permuted dimensions are distinct keys.
	c.Put(OpGEMM, 3, 2, 1, 4)
	if th, ok := c.Get(OpGEMM, 3, 2, 1); !ok || th != 4 {
		t.Fatalf("permuted key collided: (%d,%v)", th, ok)
	}
}

// TestCacheClockEviction drives one shard past capacity and checks the
// CLOCK order: an entry never read goes before a read one, a read entry
// survives one pass of the hand, and peek protects nothing.
func TestCacheClockEviction(t *testing.T) {
	fill := func() *Cache {
		c := NewCache(4, 1) // single shard, 4 slots
		for i := 1; i <= 4; i++ {
			c.Put(OpGEMM, i, i, i, i)
		}
		return c
	}
	// present lists which of keys are cached, read through peek so that
	// looking sets no referenced bit.
	present := func(c *Cache, keys ...int) (in, out []int) {
		for _, i := range keys {
			if th, ok := c.peek(OpGEMM, i, i, i); ok {
				if th != i {
					t.Fatalf("entry %d holds %d", i, th)
				}
				in = append(in, i)
			} else {
				out = append(out, i)
			}
		}
		return in, out
	}

	t.Run("unread first", func(t *testing.T) {
		c := fill()
		for i := 1; i <= 3; i++ {
			c.Get(OpGEMM, i, i, i)
		}
		c.Put(OpGEMM, 5, 5, 5, 5)
		if in, out := present(c, 1, 2, 3, 4, 5); len(out) != 1 || out[0] != 4 {
			t.Fatalf("cached %v, evicted %v; want 4, the one entry never read, evicted", in, out)
		}
		checkCache(t, c)
	})

	t.Run("second chance", func(t *testing.T) {
		c := fill()
		for i := 1; i <= 4; i++ {
			c.Get(OpGEMM, i, i, i)
		}
		// Every entry is read: the hand clears all four bits in one pass
		// and evicts one of them on the next.
		c.Put(OpGEMM, 5, 5, 5, 5)
		in, out := present(c, 1, 2, 3, 4)
		if len(out) != 1 {
			t.Fatalf("cached %v, evicted %v; want exactly one of 1-4 evicted", in, out)
		}
		if _, ok := c.peek(OpGEMM, 5, 5, 5); !ok {
			t.Fatal("new entry 5 missing")
		}
		// The hand has passed every survivor once and cleared its bit. One
		// read again is the only entry it must pass over on the next put.
		keep := in[0]
		c.Get(OpGEMM, keep, keep, keep)
		c.Put(OpGEMM, 6, 6, 6, 6)
		if _, ok := c.peek(OpGEMM, keep, keep, keep); !ok {
			t.Fatalf("entry %d, read after the hand passed it, was evicted", keep)
		}
		if entries(c) != 4 {
			t.Fatalf("len %d, want 4", entries(c))
		}
		checkCache(t, c)
	})

	t.Run("peek protects nothing", func(t *testing.T) {
		c := fill()
		for i := 2; i <= 4; i++ {
			c.Get(OpGEMM, i, i, i)
		}
		c.peek(OpGEMM, 1, 1, 1)
		c.Put(OpGEMM, 5, 5, 5, 5)
		if in, out := present(c, 1, 2, 3, 4, 5); len(out) != 1 || out[0] != 1 {
			t.Fatalf("cached %v, evicted %v; want 1, only peeked, evicted", in, out)
		}
	})
}

// TestCacheResidency checks that a working set that fits stays whole: 1536
// distinct keys — serve_predict's working set, ops dealt round-robin,
// dimensions up to 4096 — put once into the default 4096-entry, 16-shard
// cache must all hit afterwards, for any seed. Nothing is evicted until a
// shard is full, and at 1536 keys none is.
func TestCacheResidency(t *testing.T) {
	allOps := ops.All()
	for seed := int64(1); seed <= 5; seed++ {
		c := NewCache(0, 0)
		rng := rand.New(rand.NewSource(seed))
		seen := make(map[shapeKey]bool)
		var keys []shapeKey
		for len(keys) < 1536 {
			q := shapeKey{allOps[len(keys)%len(allOps)], 1 + rng.Intn(4096), 1 + rng.Intn(4096), 1 + rng.Intn(4096)}
			if q.op != OpGEMM {
				q.n = q.m
			}
			if !seen[q] {
				seen[q] = true
				keys = append(keys, q)
			}
		}
		for i, q := range keys {
			if _, ok := c.Get(q.op, q.m, q.k, q.n); !ok {
				c.Put(q.op, q.m, q.k, q.n, 1+i%64)
			}
		}
		for i, q := range keys {
			if th, ok := c.Get(q.op, q.m, q.k, q.n); !ok || th != 1+i%64 {
				t.Fatalf("seed %d: key %d %+v = (%d, %v), want (%d, true)", seed, i, q, th, ok, 1+i%64)
			}
		}
		if entries(c) != len(keys) {
			t.Fatalf("seed %d: len %d, want %d", seed, entries(c), len(keys))
		}
	}
}

// TestCacheEvictionChurn pushes far more keys than capacity through the
// cache and verifies the size invariant and internal consistency hold.
func TestCacheEvictionChurn(t *testing.T) {
	c := NewCache(64, 8)
	for i := 0; i < 10000; i++ {
		c.Put(OpGEMM, i, i*7, i*13, 1+i%32)
	}
	if entries(c) > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", entries(c), c.Capacity())
	}
	// The most recent keys of each shard should still resolve correctly.
	found := 0
	for i := 9900; i < 10000; i++ {
		if th, ok := c.Get(OpGEMM, i, i*7, i*13); ok {
			found++
			if th != 1+i%32 {
				t.Fatalf("key %d: threads %d, want %d", i, th, 1+i%32)
			}
		}
	}
	if found == 0 {
		t.Fatal("no recent keys survived churn")
	}
	checkCache(t, c)
}

// TestCacheConcurrent hammers the cache from many goroutines; run under
// -race this validates the locking discipline.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(256, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := (g*2000 + i) % 300
				c.Put(OpGEMM, key, key+1, key+2, key%32+1)
				if th, ok := c.Get(OpGEMM, key, key+1, key+2); ok && th != key%32+1 {
					panic(fmt.Sprintf("key %d read %d", key, th))
				}
			}
		}(g)
	}
	wg.Wait()
	if entries(c) > c.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", entries(c), c.Capacity())
	}
}

// TestCacheTornRead races lock-free readers against a writer that churns
// twelve keys through an eight-entry shard, so that nearly every put evicts
// and shifts cells under the readers' probes. Every key's thread count is a
// function of the key, and every hit must return it: a probe that mixed two
// cells' words, or one cell's words from before and after a move, would
// not. The writer pauses between puts so that readers often start with the
// sequence even and a put begins under them. A reader that ignores the
// sequence word fails this at once; one that skips only the second read of
// it fails one run in five to ten on two CPUs.
func TestCacheTornRead(t *testing.T) {
	c := NewCache(8, 1)
	const space = 12
	want := func(key int) int { return key*7 + 3 }
	puts := 1000000
	if testing.Short() {
		puts = 100000
	}
	var wg sync.WaitGroup
	var done atomic.Bool
	var hits, sink atomic.Int64
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < puts; i++ {
			key := i * 5 % space
			c.Put(OpSYRK, key, key+1, key, want(key))
			x := 0
			for j := 0; j < i%64; j++ {
				x += j * j
			}
			sink.Add(int64(x))
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			key := i * 7 % space
			if th, ok := c.Get(OpSYRK, key, key+1, key); ok {
				hits.Add(1)
				if th != want(key) {
					panic(fmt.Sprintf("key %d read %d, want %d", key, th, want(key)))
				}
			}
		}
	}()
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("the reader never hit: the race was not exercised")
	}
	checkCache(t, c)
}

func TestShapeKeyHashSpread(t *testing.T) {
	// Sequential small dimensions must not all land in one shard.
	const shards = 16
	var hist [shards]int
	for m := 1; m <= 32; m++ {
		for k := 1; k <= 8; k++ {
			hist[shapeKey{OpGEMM, m, k, m + k}.hash()&(shards-1)]++
		}
	}
	for i, n := range hist {
		if n == 0 {
			t.Errorf("shard %d received no keys", i)
		}
	}
}

// BenchmarkCacheGet measures the decision cache alone: a hit on one
// goroutine (serial), hits from every P at once (parallel), and a put into a
// full shard, which evicts (put_evict). The hits cycle over eight shapes, as
// hot_small's do; every row must allocate nothing.
func BenchmarkCacheGet(b *testing.B) {
	hot := [...]shapeKey{
		{OpGEMM, 4, 4, 4}, {OpGEMM, 8, 8, 8}, {OpGEMM, 16, 16, 16}, {OpGEMM, 8, 16, 4},
		{OpSYRK, 8, 8, 8}, {OpSYRK, 16, 4, 16}, {OpSYR2K, 8, 8, 8}, {OpSYR2K, 12, 16, 12},
	}
	c := NewCache(0, 0)
	for _, q := range hot {
		c.Put(q.op, q.m, q.k, q.n, 2)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := &hot[i%len(hot)]
			c.Get(q.op, q.m, q.k, q.n)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				q := &hot[i%len(hot)]
				c.Get(q.op, q.m, q.k, q.n)
			}
		})
	})
	b.Run("put_evict", func(b *testing.B) {
		for i := 0; i < c.Capacity(); i++ {
			c.Put(OpGEMM, 9000+i, 9, 9, 1)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(OpGEMM, 20000+i, 9, 9, 1)
		}
	})
}

// checkCache checks every shard's table: the count matches the used cells
// and stays within the capacity, each used cell's recorded home is where its
// key hashes, and no empty cell lies between a used cell and its home, so
// every probe can reach every entry.
func checkCache(t *testing.T, c *Cache) {
	t.Helper()
	for si, s := range c.shards {
		s.mu.Lock()
		used := 0
		for i := range s.cells {
			cl := &s.cells[i]
			w := cl.meta.Load()
			if w&metaUsed == 0 {
				continue
			}
			used++
			key := shapeKey{Op(w >> metaOpShift & 0xff), int(cl.m.Load()), int(cl.k.Load()), int(cl.n.Load())}
			h := key.hash()
			if h&c.shardMask != uint64(si) || uint64(s.home[i]) != h>>c.shardBits&s.mask {
				t.Errorf("shard %d cell %d: key %+v in the wrong shard or with home %d", si, i, key, s.home[i])
			}
			for j := uint64(s.home[i]); j != uint64(i); j = (j + 1) & s.mask {
				if s.cells[j].meta.Load()&metaUsed == 0 {
					t.Errorf("shard %d cell %d: empty cell %d between it and its home %d", si, i, j, s.home[i])
				}
			}
		}
		if used != s.count || s.count > s.limit {
			t.Errorf("shard %d: %d used cells, count %d, capacity %d", si, used, s.count, s.limit)
		}
		s.mu.Unlock()
	}
}

// entries counts the decisions cached across every shard.
func entries(c *Cache) int {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}
