package blas

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mat"
)

// A Context owns the resources of the kernels' hot path: the packed-A and
// packed-B panel buffers and a persistent worker team. Reusing a Context
// across calls makes steady-state calls allocation-free and replaces the
// per-call goroutine fork/join with a dispatch to workers that are still
// polling for the next round (one atomic store) or, after an idle spell,
// parked on a channel (one send each) — directly attacking two of the four
// overhead classes in the paper's Table VII cost breakdown (thread create/
// join, here dispatch and join, and scheduling barriers; the specialised
// packing loops attack the third, data copy). See team.go for the rules.
//
// A Context serialises one call at a time and is NOT safe for concurrent
// use. Concurrent callers either use one Context each or call the package
// functions (SGEMM, DSYRK, …), which draw Contexts from an internal sync.Pool.
//
// Close releases the worker team. It is optional: a Context dropped without
// Close has a GC cleanup that stops its workers once the Context is
// unreachable, so pooled Contexts do not leak goroutines.
type Context struct {
	tm  *team
	bar barrier
	f32 ctxBufs[float32]
	f64 ctxBufs[float64]
}

// NewContext returns an empty Context; buffers and workers are created
// lazily on first use and grow to the largest problem seen.
func NewContext() *Context { return &Context{} }

// Close stops the context's worker team. The Context remains usable; the
// team is recreated on the next parallel call.
func (c *Context) Close() {
	if c.tm != nil {
		c.tm.st.close()
		c.tm = nil
	}
}

// resolveParams reports whether an explicit, non-zero prm asks for the
// default blocking — it equals defaultParams — and checks any other
// blocking, which is the caller's. The default is valid by construction.
// drive decides the zero params itself, with one compare.
func resolveParams[T float32 | float64](prm params) (bool, error) {
	if prm == defaultParams[T]() {
		return true, nil
	}
	return false, checkParams[T](prm)
}

// SGEMM computes C ← alpha·op(A)·op(B) + beta·C in single precision on this
// context with the given number of threads (values < 1 mean 1).
func (c *Context) SGEMM(transA, transB bool, alpha float32, a, b *mat.F32, beta float32, cm *mat.F32, threads int) error {
	return drive(c, opGemm, transA, transB, alpha, *a, *b, beta, *cm, threads, params{})
}

// DGEMM is the double-precision counterpart of SGEMM.
func (c *Context) DGEMM(transA, transB bool, alpha float64, a, b *mat.F64, beta float64, cm *mat.F64, threads int) error {
	return drive(c, opGemm, transA, transB, alpha, *a, *b, beta, *cm, threads, params{})
}

// ctxPool backs the package-level entry points: steady-state calls reuse a
// warmed Context and allocate nothing.
var ctxPool = sync.Pool{New: func() any { return NewContext() }}

// ctxBufs is the per-precision half of a Context: grow-only packing buffers
// plus the pre-built worker closure and its argument block, so dispatching a
// call writes a struct instead of allocating a fresh closure.
type ctxBufs[T float32 | float64] struct {
	packedB []T
	packedA [][]T // one panel buffer per team part
	small   []T   // the vector small path's staged lane operands (smallPass)
	args    callArgs[T]
	body    func(w int)
}

// callArgs carries one pass of a GEMM, SYRK or SYR2K call to the team
// workers. Symmetric-update passes set lower: the worker computes only the
// lower triangle of C, packing op(b)ᵀ as the B panel straight out of b (for
// SYRK b = a, so op(A)ᵀ needs no second operand), and mirrors the lower
// triangle into the upper when mirror is set (SYR2K's first pass leaves it
// false so the mirror runs once, after the second product).
type callArgs[T float32 | float64] struct {
	transA, transB bool
	lower          bool
	mirror         bool
	alpha, beta    T
	a, b, c        mat.Dense[T]
	m, n, k        int
	parts          int
	prm            params
}

// bufsFor selects the context's buffer set for T.
func bufsFor[T float32 | float64](ctx *Context) *ctxBufs[T] {
	if p, ok := any(&ctx.f32).(*ctxBufs[T]); ok {
		return p
	}
	return any(&ctx.f64).(*ctxBufs[T])
}

// ensure grows the packing buffers to hold parts A panels of aLen elements
// and one B panel of bLen elements.
func (b *ctxBufs[T]) ensure(parts, aLen, bLen int) {
	if cap(b.packedB) < bLen {
		b.packedB = make([]T, bLen)
	}
	b.packedB = b.packedB[:bLen]
	for len(b.packedA) < parts {
		b.packedA = append(b.packedA, nil)
	}
	for w := 0; w < parts; w++ {
		if cap(b.packedA[w]) < aLen {
			b.packedA[w] = make([]T, aLen)
		}
		b.packedA[w] = b.packedA[w][:aLen]
	}
}

// ensureBody returns the pre-built worker closure, creating it on first
// parallel use. The closure reads the published args, so dispatching a call
// writes a struct instead of allocating a fresh closure. A panic in a part is
// recovered here, on the goroutine it happened on, and becomes the round's
// fault (see barrier).
func (b *ctxBufs[T]) ensureBody(ctx *Context) func(w int) {
	if b.body == nil {
		b.body = func(w int) {
			defer ctx.bar.recoverPart(w)
			worker(ctx, b, w)
		}
	}
	return b.body
}

// runCall runs the call published in bufs.args: one part on the calling
// goroutine, or a round of the team with the caller as part 0. A part that
// panicked on the team fails the call with an error instead of hanging its
// peers; the context stays usable. (A one-part call has no peers to hang and
// no team, so there a panic is the caller's own, as in any Go call.)
func runCall[T float32 | float64](ctx *Context, bufs *ctxBufs[T], op opKind) error {
	ar := &bufs.args
	if ar.parts == 1 {
		ctx.bar.n = 1 // every wait returns at once; nothing else is read
		worker(ctx, bufs, 0)
		return nil
	}
	ctx.bar.reset(ar.parts)
	ctx.ensureTeam(ar.parts-1).run(ar.parts, bufs.ensureBody(ctx))
	if ctx.bar.broken.Load() {
		return fmt.Errorf("blas: %v m=%d n=%d k=%d: part %d of %d panicked: %v",
			op, ar.m, ar.n, ar.k, ctx.bar.faultPart, ar.parts, ctx.bar.faultValue)
	}
	return nil
}

// partHook, when set, is called by every part before each MC block of phase
// 2 with the part index and the KC offset. In-package tests set it to inject
// a fault on a chosen part and iteration; otherwise it is nil and costs one
// compare per block.
var partHook func(w, pc int)

// bands is the number of MR-row bands of an m-row C: the unit of phase-2
// ownership, and so the largest useful part count.
func bands(m, mr int) int { return (m + mr - 1) / mr }

// gemmRows returns the rows of C owned by part w: the bands are dealt
// contiguously, bands·w/parts, so part sizes differ by at most one band and
// every boundary is MR-aligned.
func gemmRows(m, mr, w, parts int) (lo, hi int) {
	nb := bands(m, mr)
	return nb * w / parts * mr, min(nb*(w+1)/parts*mr, m)
}

// ensureTeam returns a team with at least the given worker count, stopping
// and replacing a smaller one. The GC cleanup closes the replacement's quit
// channel when the Context itself dies unclosed.
func (c *Context) ensureTeam(workers int) *team {
	if c.tm == nil || c.tm.size < workers {
		if c.tm != nil {
			c.tm.st.close()
		}
		c.tm = newTeam(workers)
		runtime.AddCleanup(c, func(st *teamState) { st.close() }, c.tm.st)
	}
	return c.tm
}

// drive is the five-loop driver of every operation: argument checking,
// degenerate cases, the small-shape fast path, buffer/team setup, and the
// worker dispatch. What differs between the operations is all here — the
// dimension rule and its error text, the small-shape gate, and the
// passes: GEMM is one full pass; SYRK is one lower-triangle pass with b = a
// that ends in the mirror; SYR2K is two lower-triangle passes over the same
// packed buffers, lower(alpha·op(A)·op(B)ᵀ + beta·C) and then
// += lower(alpha·op(B)·op(A)ᵀ), the second ending in the mirror. The
// symmetric updates pass their one transpose flag as both transA and transB.
// prm is the call's blocking, the zero params meaning the default.
func drive[T float32 | float64](ctx *Context, op opKind, transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], threads int, prm params) error {
	// The zero params costs one compare here; the default blocking itself
	// is built only for a packed call.
	def := prm == (params{})
	if !def {
		var err error
		if def, err = resolveParams[T](prm); err != nil {
			return err
		}
	}
	if op == opSyrk {
		b = a // the second operand of the lower pass is the first
	}
	if err := checkOperands(op, a, b, c); err != nil {
		return err
	}
	lower := op != opGemm
	m, k := opDims(a, transA)
	n := m
	if lower {
		if bn, bk := opDims(b, transB); bn != n || bk != k {
			return fmt.Errorf("blas: %v op(B) is %dx%d, want %dx%d to match op(A)", op, bn, bk, n, k)
		}
		if c.Rows != n || c.Cols != n {
			return fmt.Errorf("blas: %v C is %dx%d, want %dx%d", op, c.Rows, c.Cols, n, n)
		}
	} else {
		var kb int
		if kb, n = opDims(b, transB); kb != k {
			return fmt.Errorf("blas: inner dimensions differ: op(A) is %dx%d, op(B) is %dx%d", m, k, kb, n)
		}
		if c.Rows != m || c.Cols != n {
			return fmt.Errorf("blas: C is %dx%d, want %dx%d", c.Rows, c.Cols, m, n)
		}
	}

	// Degenerate cases per the BLAS spec: no FLOPs, only the beta scaling.
	if m == 0 || n == 0 {
		return nil
	}
	if alpha == 0 || k == 0 {
		scaleC(c, beta, lower)
		if lower {
			mirrorLower(c, 0, n)
		}
		return nil
	}

	// Small shapes skip packing entirely: below the threshold the panel
	// copies and phase barriers cost more than they save, and the call runs
	// one thread whatever was asked. Only the default blocking takes this
	// path — explicit params mean the caller is studying the packed
	// algorithm (ablations, micro-tile comparisons) and must get exactly the
	// configuration they asked for. The small path computes the packed
	// path's bits, so the gate moves none, and neither does the default's
	// other dimension rule: a narrow C keeps the YMM tile.
	if def {
		if smallShape(op, m, n, k) {
			smallCall(ctx, op, transA, transB, alpha, a, b, beta, c, m, n, k)
			return nil
		}
		prm = defaultParams[T]()
		if narrowShape[T](n) {
			prm.NR = ymmNR[T]()
		}
	}

	// No point having workers with no MR-row band to own.
	threads = min(max(threads, 1), bands(m, prm.MR))

	// Buffers are sized to the actual problem (grow-only), so small calls
	// do not pay for full cache-sized panels.
	kcEff := min(prm.KC, k)
	ncEff := min(prm.NC, (n+prm.NR-1)/prm.NR*prm.NR)
	mcEff := min(prm.MC, (m+prm.MR-1)/prm.MR*prm.MR)
	bufs := bufsFor[T](ctx)
	bufs.ensure(threads, mcEff*kcEff, kcEff*ncEff)
	bufs.args = callArgs[T]{
		transA: transA, transB: transB,
		lower: lower, mirror: op == opSyrk,
		alpha: alpha, beta: beta,
		a: a, b: b, c: c,
		m: m, n: n, k: k,
		parts: threads,
		prm:   prm,
	}
	err := runCall(ctx, bufs, op)
	if err == nil && op == opSyr2k {
		// Pass 2: lower(C) += alpha·op(B)·op(A)ᵀ (beta = 1 accumulates), then
		// mirror the completed lower triangle band-parallel.
		ar := &bufs.args
		ar.a, ar.b, ar.beta, ar.mirror = b, a, 1, true
		err = runCall(ctx, bufs, op)
	}
	// Drop the operands: a held (or pooled) Context must not pin the
	// caller's matrices after the call returns.
	bufs.args = callArgs[T]{}
	return err
}

// reach is how many of the nc columns of the panel at jc a run of rows ending
// at iEnd−1 updates: all of them, or under lower only those on or below the
// diagonal (j ≤ i). Not positive when the rows lie entirely above it.
func reach(lower bool, nc, iEnd, jc int) int {
	if lower {
		return min(nc, iEnd-jc)
	}
	return nc
}

// worker is the per-part body of the five-loop algorithm. All parts execute
// the same jc/pc loop structure; within each blocking iteration the B panel
// is packed cooperatively (phase 1), a barrier publishes it, each part then
// walks its own MR-aligned row range of C in MC-sized blocks, packing and
// multiplying each (phase 2), and a second barrier closes the iteration
// before the shared B panel is reused. Ownership decides only who computes a
// tile, never the order an element is summed in (ascending p inside a KC
// chunk, chunks in order), so the result is bit-identical for every parts
// value. A failed wait means a peer panicked: return.
//
// A lower pass is the same loop with B = op(b)ᵀ and the work cut to the
// triangle: flipping the transpose flag makes packBRange read op(b)ᵀ straight
// out of b, rows are dealt per jc panel by lower-triangle tiles instead of by
// bands (syrkRows), and blocks entirely above the diagonal are skipped before
// paying the A-packing copy.
//
//adsala:zeroalloc
func worker[T float32 | float64](ctx *Context, bufs *ctxBufs[T], w int) {
	ar := &bufs.args
	prm := ar.prm
	parts := ar.parts
	m, n, k := ar.m, ar.n, ar.k
	rlo, rhi := gemmRows(m, prm.MR, w, parts)
	for jc := 0; jc < n; jc += prm.NC {
		nc := min(prm.NC, n-jc)
		nPanels := (nc + prm.NR - 1) / prm.NR
		if ar.lower {
			rlo, rhi = syrkRows(n, jc, nc, prm, w, parts)
		}
		for pc := 0; pc < k; pc += prm.KC {
			kc := min(prm.KC, k-pc)
			first := pc == 0

			lo := nPanels * w / parts
			hi := nPanels * (w + 1) / parts
			packBRange(ar.b, ar.transB != ar.lower, pc, jc, kc, nc, lo, hi, bufs.packedB, prm.NR)
			if !ctx.bar.wait() {
				return
			}

			for ic := rlo; ic < rhi; ic += prm.MC {
				mc := min(prm.MC, rhi-ic)
				ncb := reach(ar.lower, nc, ic+mc, jc)
				if ncb <= 0 {
					continue
				}
				if partHook != nil {
					partHook(w, pc)
				}
				packA(ar.a, ar.transA, ic, pc, mc, kc, bufs.packedA[w], prm.MR)
				macroKernel(ar.alpha, bufs.packedA[w], bufs.packedB, ar.beta, ar.c, ic, jc, mc, ncb, kc, first, ar.lower, prm)
			}
			if !ctx.bar.wait() {
				return
			}
		}
	}
	// The final barrier above published the whole lower triangle; mirror it
	// band-parallel (writes are disjoint rows of the upper triangle, reads
	// are the now read-only lower triangle).
	if ar.mirror {
		lo, hi := mirrorRange(n, w, parts)
		mirrorLower(ar.c, lo, hi)
	}
}
