// Package atomicfield_a exercises ctxflow's atomics rule: a field reached
// through a sync/atomic function can also be reached plainly, the
// torn-read bug class, so every such call is reported and the typed
// wrappers are the allowed form.
package atomicfield_a

import (
	"sync/atomic"
	at "sync/atomic"
)

type counters struct {
	hits   int64
	misses int64
	clean  atomic.Int64
}

func (c *counters) record() {
	atomic.AddInt64(&c.hits, 1) // want `sync/atomic.AddInt64 — use a typed wrapper`
	// The callee is resolved by type, so an aliased import does not hide it.
	at.AddInt64(&c.misses, 1) // want `sync/atomic.AddInt64 — use a typed wrapper`
}

func (c *counters) snapshot() (int64, int64) {
	h := atomic.LoadInt64(&c.hits) // want `sync/atomic.LoadInt64 — use a typed wrapper`
	return h, c.clean.Load()
}

// touch uses the typed wrapper, whose methods are the allowed form — no
// finding (the negative case).
func (c *counters) touch() { c.clean.Add(1) }

// zero runs before any goroutine can see c; the call is justified and
// suppressed.
func (c *counters) zero() {
	atomic.StoreInt64(&c.hits, 0) //adsala:ignore ctxflow test fixture: runs before concurrency starts
}
