package adsala

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/serve"
)

// Internal aliases backing the exported matrix names.
type (
	matF32 = mat.F32
	matF64 = mat.F64
)

// NewMatrixF32 allocates a zeroed, 64-byte-aligned rows × cols matrix.
func NewMatrixF32(rows, cols int) *MatrixF32 { return mat.NewF32(rows, cols) }

// NewMatrixF64 allocates a zeroed, 64-byte-aligned rows × cols matrix.
func NewMatrixF64(rows, cols int) *MatrixF64 { return mat.NewF64(rows, cols) }

// BLAS is the generic runtime front end of Fig 3 for every registered
// BLAS-3 operation: each call consults the library's per-op model bundle
// for the thread count (decisions cached under the (op, shape) key in the
// library's ONE shared engine) and executes on the packed blocked kernels.
// The engine ranks only the candidates this host can run (the library's
// feasible view, sized at GOMAXPROCS when the library was built), so a
// library trained for a larger platform neither scores nor picks a thread
// count that cannot execute here. The executed count is still clamped per
// call: that guard covers SetMaxLocalThreads and a GOMAXPROCS lowered after
// the library was built.
//
// Every facade obtained from the same Library — BLAS() calls, Engine with
// default options — shares that one engine, so CacheStats and a serving
// daemon's /stats always agree and a decision first made through any front
// end is a cache hit for all of them.
//
// The full predict→execute path is allocation-free in steady state: cache
// hits rank nothing, and execution draws a warmed blas.Context (packed
// panel buffers plus a persistent worker team) from the kernel's internal
// pool. A call pays only for what it uses: the kernel is timed only while a
// flight recorder or drift monitor is attached to the engine, and a
// decision of one thread runs without reading GOMAXPROCS. A BLAS is safe
// for concurrent use, SetMaxLocalThreads included.
type BLAS struct {
	eng *serve.Engine
	// maxLocal caps the executed thread count (0 = hostThreads).
	maxLocal atomic.Int64
}

// BLAS returns the generic BLAS-3 front end bound to the library's shared
// serving engine.
func (l *Library) BLAS() *BLAS { return &BLAS{eng: l.sharedEngine()} }

// Engine returns the serving engine behind this facade (the library's
// shared engine).
func (b *BLAS) Engine() *serve.Engine { return b.eng }

// SetMaxLocalThreads overrides the local execution clamp for calls through
// this facade (useful in tests). It does not affect other facades sharing
// the engine.
func (b *BLAS) SetMaxLocalThreads(n int) { b.maxLocal.Store(int64(n)) }

// localClamp returns the largest thread count to actually run.
func (b *BLAS) localClamp() int {
	if n := b.maxLocal.Load(); n > 0 {
		return int(n)
	}
	return hostThreads()
}

// clamp bounds a model decision to what this facade executes. A decision
// of at most one thread runs at one without reading localClamp: no clamp
// lowers one thread, and GOMAXPROCS takes the scheduler lock.
func (b *BLAS) clamp(threads int) int {
	if threads <= 1 {
		return 1
	}
	return clampThreads(threads, b.localClamp())
}

// clampThreads bounds a model decision to [1, max] for local execution.
func clampThreads(threads, max int) int {
	if threads > max {
		threads = max
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// choose returns the model-selected thread count for one op at its
// canonical feature triple, clamped for local execution.
func (b *BLAS) choose(op Op, m, k, n int) int {
	threads, _ := b.eng.PredictOpCtx(context.Background(), op, m, k, n)
	return b.clamp(threads)
}

// startClock reads the clock when the engine has a listener for the call's
// measurement (Engine.Measuring) and returns the zero time otherwise. It is
// asked once, before the kernel: a listener attached mid-call misses only
// that call, as it would had the call finished before the attach.
func (b *BLAS) startClock() time.Time {
	if !b.eng.Measuring() {
		return time.Time{}
	}
	return time.Now()
}

// record reports a successful call's wall time since start to the engine,
// when startClock found a listener.
func (b *BLAS) record(start time.Time, err error, op Op, m, k, n, threads int) {
	if err == nil && !start.IsZero() {
		b.eng.RecordMeasured(op, m, k, n, threads, time.Since(start).Nanoseconds())
	}
}

// opDims returns the (m, n, k) dimensions of op(A)·op(B).
func opDims[T float32 | float64](a *mat.Dense[T], transA bool, bm *mat.Dense[T], transB bool) (m, n, k int) {
	m, k = a.Rows, a.Cols
	if transA {
		m, k = a.Cols, a.Rows
	}
	n = bm.Cols
	if transB {
		n = bm.Rows
	}
	return m, n, k
}

// syrkDims returns the (n, k) dimensions of op(A) for the symmetric
// updates.
func syrkDims(rows, cols int, trans bool) (n, k int) {
	if trans {
		return cols, rows
	}
	return rows, cols
}

// SGEMM computes C ← alpha·op(A)·op(B) + beta·C in single precision with
// the model-selected thread count.
//
// While the engine carries a flight recorder or a drift monitor, each
// facade call times its kernel execution and reports it: the recorder
// appends a measurement record alongside the decision record and the
// monitor scores the pair — the in-process path is where predicted and
// measured runtimes pair up, turning every traced call into labelled
// evaluation data for adsala-replay. The timing is then two monotonic clock
// reads; with no listener attached there are none. No closures, no
// allocation either way.
func (b *BLAS) SGEMM(transA, transB bool, alpha float32, a, bm *MatrixF32, beta float32, c *MatrixF32) error {
	m, n, k := opDims(a, transA, bm, transB)
	threads := b.choose(OpGEMM, m, k, n)
	start := b.startClock()
	err := blas.SGEMM(transA, transB, alpha, a, bm, beta, c, threads)
	b.record(start, err, OpGEMM, m, k, n, threads)
	return err
}

// DGEMM is the double-precision counterpart of SGEMM.
func (b *BLAS) DGEMM(transA, transB bool, alpha float64, a, bm *MatrixF64, beta float64, c *MatrixF64) error {
	m, n, k := opDims(a, transA, bm, transB)
	threads := b.choose(OpGEMM, m, k, n)
	start := b.startClock()
	err := blas.DGEMM(transA, transB, alpha, a, bm, beta, c, threads)
	b.record(start, err, OpGEMM, m, k, n, threads)
	return err
}

// SSYRK computes C ← alpha·op(A)·op(A)ᵀ + beta·C in single precision with
// the thread count selected by the SYRK model (the GEMM model when no SYRK
// model was trained). Only the lower triangle of C is read for the beta
// update; the result is exactly symmetric.
func (b *BLAS) SSYRK(trans bool, alpha float32, a *MatrixF32, beta float32, c *MatrixF32) error {
	n, k := syrkDims(a.Rows, a.Cols, trans)
	threads := b.choose(OpSYRK, n, k, n)
	start := b.startClock()
	err := blas.SSYRK(trans, alpha, a, beta, c, threads)
	b.record(start, err, OpSYRK, n, k, n, threads)
	return err
}

// DSYRK is the double-precision counterpart of SSYRK.
func (b *BLAS) DSYRK(trans bool, alpha float64, a *MatrixF64, beta float64, c *MatrixF64) error {
	n, k := syrkDims(a.Rows, a.Cols, trans)
	threads := b.choose(OpSYRK, n, k, n)
	start := b.startClock()
	err := blas.DSYRK(trans, alpha, a, beta, c, threads)
	b.record(start, err, OpSYRK, n, k, n, threads)
	return err
}

// SSYR2K computes C ← alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C in
// single precision with the thread count selected by the SYR2K model (GEMM
// fallback when untrained). op(A) and op(B) must both be n×k; only the
// lower triangle of C is read for the beta update and the result is exactly
// symmetric.
func (b *BLAS) SSYR2K(trans bool, alpha float32, a, bm *MatrixF32, beta float32, c *MatrixF32) error {
	n, k := syrkDims(a.Rows, a.Cols, trans)
	threads := b.choose(OpSYR2K, n, k, n)
	start := b.startClock()
	err := blas.SSYR2K(trans, alpha, a, bm, beta, c, threads)
	b.record(start, err, OpSYR2K, n, k, n, threads)
	return err
}

// DSYR2K is the double-precision counterpart of SSYR2K.
func (b *BLAS) DSYR2K(trans bool, alpha float64, a, bm *MatrixF64, beta float64, c *MatrixF64) error {
	n, k := syrkDims(a.Rows, a.Cols, trans)
	threads := b.choose(OpSYR2K, n, k, n)
	start := b.startClock()
	err := blas.DSYR2K(trans, alpha, a, bm, beta, c, threads)
	b.record(start, err, OpSYR2K, n, k, n, threads)
	return err
}

// LastChoice reports the thread count a previous call (or prediction)
// selected for the op at its canonical (m, k, n) triple — symmetric updates
// pass (n, k, n) — clamped the same way execution was. It is a read-only
// peek of the shared decision cache: no prediction runs and no hit/miss
// counter moves. Returns 0 when the configuration has not been selected yet
// (or its entry has been evicted).
func (b *BLAS) LastChoice(op Op, m, k, n int) int {
	threads, ok := b.eng.CachedChoice(op, m, k, n)
	if !ok {
		return 0
	}
	return b.clamp(threads)
}

// CacheStats reports the serving (hits, misses) of the shared engine —
// aggregated across every op and every facade of the library.
func (b *BLAS) CacheStats() (hits, misses int64) {
	st := b.eng.Stats()
	return st.CacheHits, st.CacheMisses
}
