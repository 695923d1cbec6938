package serve

import (
	"fmt"
	"math"
	"sync"
	"testing"
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

// TestCacheLRUEviction drives one shard past capacity and checks that the
// least recently used entries fall out first.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(4, 1) // single shard, 4 slots
	for i := 1; i <= 4; i++ {
		c.Put(OpGEMM, i, i, i, i)
	}
	c.Get(OpGEMM, 1, 1, 1) // refresh 1: now 2 is the LRU
	c.Put(OpGEMM, 5, 5, 5, 5)
	if _, ok := c.Get(OpGEMM, 2, 2, 2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, want := range []int{1, 3, 4, 5} {
		if th, ok := c.Get(OpGEMM, want, want, want); !ok || th != want {
			t.Fatalf("entry %d: (%d,%v)", want, th, ok)
		}
	}
	if entries(c) != 4 {
		t.Fatalf("len %d, want 4", entries(c))
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

// entries counts the decisions cached across every shard.
func entries(c *Cache) int {
	n := 0
	for _, s := range c.shards {
		n += s.len()
	}
	return n
}
