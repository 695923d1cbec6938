package simtime

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ops"
)

// RealTimer measures the built-in blas kernels on the local host with the
// wall clock: operands are allocated through the operation registry's
// executor binding, and iters timed calls are averaged — the same loop
// structure the paper uses for its data collection (§V-B.3).
//
// RealTimer exists so the full ADSALA workflow (sample → time → train →
// select threads) runs end-to-end on real silicon: the quickstart example
// and integration tests use it with small shapes. The paper-scale
// experiments use the Simulator.
type RealTimer struct {
	mu sync.Mutex
	// cur is the one (op, shape) configuration whose operands the timer
	// keeps: a sweep visits each shape once (all candidates, then never
	// again), so the previous set is garbage the moment the shape changes.
	cur   bench
	rng   *rand.Rand
	calls atomic.Int64
}

// bench is one executor closure with the configuration its operands fit.
type bench struct {
	op      ops.Op
	m, k, n int
	run     func(threads int) error
}

// NewRealTimer returns a RealTimer.
func NewRealTimer() *RealTimer {
	return &RealTimer{rng: rand.New(rand.NewSource(42))}
}

// Measure returns the mean wall seconds of exactly iters timed calls of the
// op's registry kernel.
func (t *RealTimer) Measure(op ops.Op, m, k, n, threads, iters int) float64 {
	if iters < 1 {
		panic("simtime: Measure needs iters >= 1")
	}
	run := t.benchFor(op, m, k, n)
	var total time.Duration
	for i := 0; i < iters; i++ {
		t.calls.Add(1)
		start := time.Now()
		// Benchmarked error path is impossible: shapes are consistent by
		// construction, so any error is a programmer bug worth surfacing.
		if err := run(threads); err != nil {
			panic("simtime: RealTimer " + op.String() + " failed: " + err.Error())
		}
		total += time.Since(start)
	}
	return total.Seconds() / float64(iters)
}

// GemmCalls returns the cumulative number of timed kernel invocations (all
// ops) — the ground truth the iters-accounting regression tests assert
// against.
func (t *RealTimer) GemmCalls() int64 { return t.calls.Load() }

// benchFor returns the executor closure for one (op, shape) configuration,
// building its operands unless it is the configuration already held. A
// caller still timing the replaced configuration keeps that closure alive
// for its own call, so concurrent callers on different shapes stay correct.
func (t *RealTimer) benchFor(op ops.Op, m, k, n int) func(threads int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.cur; c.run == nil || c.op != op || c.m != m || c.k != k || c.n != n {
		t.cur = bench{op, m, k, n, op.Spec().NewBench(m, k, n, t.rng)}
	}
	return t.cur.run
}
