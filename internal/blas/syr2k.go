package blas

import "repro/internal/mat"

// SYR2K — symmetric rank-2k update, C ← alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ)
// + beta·C with op(X) = X (trans=false) or Xᵀ (trans=true), op(A) and op(B)
// both n×k. Like SYRK, only the lower triangle of C is computed and the
// upper triangle is mirrored from it afterwards, so the result is exactly
// symmetric and the upper-triangle content of the input C is never read.
//
// SYR2K is the registry's proof that the masked-tile machinery closes the
// BLAS-3 extension loop (§VII future work): no new kernel code is needed —
// the update is two lower passes of the one five-loop (drive in context.go)
// over the same packed buffers, the first computing
// lower(alpha·op(A)·op(B)ᵀ + beta·C), the second accumulating
// lower(alpha·op(B)·op(A)ᵀ) and running the band-parallel mirror. Row
// ownership and summation order depend only on the dimensions and the
// blocking parameters, so results are bit-identical across thread counts, and
// both passes reuse the context's packed panels (steady-state calls allocate
// nothing). This file holds the entry points.

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
	return drive(c, opSyr2k, trans, trans, alpha, *a, *b, beta, *cm, threads, c.Params)
}

// DSYR2K is the double-precision counterpart of SSYR2K.
func (c *Context) DSYR2K(trans bool, alpha float64, a, b *mat.F64, beta float64, cm *mat.F64, threads int) error {
	return drive(c, opSyr2k, trans, trans, alpha, *a, *b, beta, *cm, threads, c.Params)
}
