package blas

import (
	"fmt"

	"repro/internal/mat"
)

// SYR2K — symmetric rank-2k update, C ← alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ)
// + beta·C with op(X) = X (trans=false) or Xᵀ (trans=true), op(A) and op(B)
// both n×k. Like SYRK, only the lower triangle of C is computed and the
// upper triangle is mirrored from it afterwards, so the result is exactly
// symmetric and the upper-triangle content of the input C is never read.
//
// SYR2K is the registry's proof that the masked-tile machinery closes the
// BLAS-3 extension loop (§VII future work): no new kernel code is needed —
// the update is two SYRK-shaped passes over the same packed buffers, the
// first computing lower(alpha·op(A)·op(B)ᵀ + beta·C), the second
// accumulating lower(alpha·op(B)·op(A)ᵀ) and running the band-parallel
// mirror. Row ownership and summation order depend only on the dimensions
// and the blocking parameters, so results are bit-identical across thread
// counts, and both passes reuse the context's packed panels (steady-state
// calls allocate nothing).

// SSYR2K computes the single-precision symmetric rank-2k update using the
// given number of worker goroutines (threads < 1 is treated as 1). The call
// runs on a pooled Context and allocates nothing in steady state.
func SSYR2K(trans bool, alpha float32, a, b *mat.F32, beta float32, c *mat.F32, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.SSYR2K(trans, alpha, a, b, beta, c, threads)
}

// DSYR2K is the double-precision counterpart of SSYR2K.
func DSYR2K(trans bool, alpha float64, a, b *mat.F64, beta float64, c *mat.F64, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.DSYR2K(trans, alpha, a, b, beta, c, threads)
}

// SSYR2K computes C ← alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C in single
// precision on this context with the given number of threads (values < 1
// mean 1).
func (c *Context) SSYR2K(trans bool, alpha float32, a, b *mat.F32, beta float32, cm *mat.F32, threads int) error {
	av := view[float32]{a.Rows, a.Cols, a.Stride, a.Data}
	bv := view[float32]{b.Rows, b.Cols, b.Stride, b.Data}
	cv := view[float32]{cm.Rows, cm.Cols, cm.Stride, cm.Data}
	return syr2kCtx(c, trans, alpha, av, bv, beta, cv, threads, paramsFor[float32](c))
}

// DSYR2K is the double-precision counterpart of SSYR2K.
func (c *Context) DSYR2K(trans bool, alpha float64, a, b *mat.F64, beta float64, cm *mat.F64, threads int) error {
	av := view[float64]{a.Rows, a.Cols, a.Stride, a.Data}
	bv := view[float64]{b.Rows, b.Cols, b.Stride, b.Data}
	cv := view[float64]{cm.Rows, cm.Cols, cm.Stride, cm.Data}
	return syr2kCtx(c, trans, alpha, av, bv, beta, cv, threads, paramsFor[float64](c))
}

// syr2kCtx is the SYR2K driver: argument checking, degenerate cases, the
// small-shape fast path, and two SYRK-shaped worker dispatches over the
// shared packed buffers — pass 1 applies beta and computes
// lower(alpha·op(A)·op(B)ᵀ), pass 2 accumulates lower(alpha·op(B)·op(A)ᵀ)
// with beta = 1 and mirrors the completed lower triangle.
func syr2kCtx[T float32 | float64](ctx *Context, trans bool, alpha T, a, b view[T], beta T, c view[T], threads int, prm Params) error {
	if err := checkParams[T](prm); err != nil {
		return err
	}
	if err := checkOperands("SYR2K", a, b, c); err != nil {
		return err
	}
	n, k := opDims(a, trans)
	if bn, bk := opDims(b, trans); bn != n || bk != k {
		return fmt.Errorf("blas: SYR2K op(B) is %dx%d, want %dx%d to match op(A)", bn, bk, n, k)
	}
	if c.rows != n || c.cols != n {
		return fmt.Errorf("blas: SYR2K C is %dx%d, want %dx%d", c.rows, c.cols, n, n)
	}
	if threads < 1 {
		threads = 1
	}
	if n == 0 {
		return nil
	}
	if alpha == 0 || k == 0 {
		scaleLower(c, beta)
		mirrorLower(c, 0, n)
		return nil
	}

	// Small shapes skip packing, as in GEMM and SYRK. The packed rank-2k
	// update pays the fixed cost of a pass (packing, barriers) twice while
	// smallSyr2k fuses both products into one sweep, so its crossover sits
	// at about twice SYRK's n·n·k (measured: 12³ against about 10³); the gate
	// still depends only on the dimensions, keeping results bit-identical
	// across thread counts.
	if prm == DefaultParams[T]() && smallShape(n, n, (k+1)/2) {
		smallSyr2k(trans, alpha, a, b, beta, c, n, k)
		mirrorLower(c, 0, n)
		return nil
	}

	threads = min(threads, bands(n, prm.MR))

	kcEff := min(prm.KC, k)
	ncEff := min(prm.NC, (n+prm.NR-1)/prm.NR*prm.NR)
	mcEff := min(prm.MC, (n+prm.MR-1)/prm.MR*prm.MR)
	bufs := bufsFor[T](ctx)
	bufs.ensure(threads, mcEff*kcEff, kcEff*ncEff)

	// Pass 1: lower(C) ← alpha·op(A)·op(B)ᵀ + beta·lower(C), no mirror yet.
	bufs.args = callArgs[T]{
		transA: trans, transB: trans,
		alpha: alpha, beta: beta,
		a: a, b: b, c: c,
		m: n, n: n, k: k,
		parts: threads,
		prm:   prm,
		syrk:  true,
	}
	err := runCall(ctx, bufs, "SYR2K")

	// Pass 2: lower(C) += alpha·op(B)·op(A)ᵀ (beta = 1 accumulates), then
	// mirror the completed lower triangle band-parallel.
	if err == nil {
		bufs.args = callArgs[T]{
			transA: trans, transB: trans,
			alpha: alpha, beta: 1,
			a: b, b: a, c: c,
			m: n, n: n, k: k,
			parts: threads,
			prm:   prm,
			syrk:  true, mirror: true,
		}
		err = runCall(ctx, bufs, "SYR2K")
	}
	bufs.args = callArgs[T]{}
	return err
}

// smallSyr2k computes the lower triangle of
// alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C without packing. Callers
// handle the degenerate n/k = 0 and alpha = 0 cases and the mirror pass.
func smallSyr2k[T float32 | float64](trans bool, alpha T, a, b view[T], beta T, c view[T], n, k int) {
	for i := 0; i < n; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		if !trans {
			// op(X) = X: rows i and j of A and B are contiguous dot operands.
			ai := a.data[i*a.stride : i*a.stride+k]
			bi := b.data[i*b.stride : i*b.stride+k]
			for j := 0; j <= i; j++ {
				aj := a.data[j*a.stride : j*a.stride+k]
				bj := b.data[j*b.stride : j*b.stride+k]
				var sum T
				for p, av := range ai {
					sum += av*bj[p] + bi[p]*aj[p]
				}
				if beta == 0 {
					row[j] = alpha * sum
				} else {
					row[j] = alpha*sum + beta*row[j]
				}
			}
			continue
		}
		// op(X) = Xᵀ: columns i and j, strided reads.
		for j := 0; j <= i; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += a.data[p*a.stride+i]*b.data[p*b.stride+j] +
					b.data[p*b.stride+i]*a.data[p*a.stride+j]
			}
			if beta == 0 {
				row[j] = alpha * sum
			} else {
				row[j] = alpha*sum + beta*row[j]
			}
		}
	}
}
