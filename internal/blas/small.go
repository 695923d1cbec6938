package blas

import "repro/internal/mat"

// Small-shape fast path: below a FLOP threshold the packed algorithm's
// panel copies, buffer setup and phase barriers dominate the useful work,
// so tiny GEMMs run a single-threaded blocked loop directly on the operands
// instead. The loop order is chosen per transB so the innermost loop
// always streams a contiguous row of B (or of C), which is what the packed
// layout would have bought anyway at these sizes.

// smallShapeLimit bounds m·n·k for the no-packing path. It was re-measured
// against the vector tile (BenchmarkSmallCrossover, single thread): the
// packed path overtakes the loops below at 8³ for GEMM and at about 10³ for
// SYRK — 16³ already runs five times faster packed — so the limit is 8³. Against
// the scalar Go tile it was 40³; the fallback tile shares the new limit at
// no cost, it runs within 10 % of these loops from 12³ to 48³. A variable
// rather than a constant so the test matrix can force either path.
var smallShapeLimit = 8 * 8 * 8

// smallShape reports whether an m×n×k problem should skip packing. It must
// depend only on the dimensions — never on the thread count — so that
// results stay bit-identical across thread counts. The product is taken in
// float64, exact far beyond any limit: in a 32-bit int 2048³ wraps to 0 and
// would send an 8.6-GFLOP call down the scalar loop.
func smallShape(m, n, k int) bool {
	return float64(m)*float64(n)*float64(k) <= float64(smallShapeLimit)
}

// smallGemm computes C ← alpha·op(A)·op(B) + beta·C without packing.
// Callers have already handled the degenerate m/n/k = 0 and alpha = 0 cases.
func smallGemm[T float32 | float64](transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], m, n, k int) {
	if !transB {
		// AXPY form: C(i, :) accumulates alpha·op(A)(i, p) · B(p, :), with
		// the inner loop contiguous over both B's row and C's row.
		for i := 0; i < m; i++ {
			crow := c.Data[i*c.Stride : i*c.Stride+n]
			if beta == 0 {
				for j := range crow {
					crow[j] = 0
				}
			} else if beta != 1 {
				for j := range crow {
					crow[j] *= beta
				}
			}
			for p := 0; p < k; p++ {
				var aip T
				if transA {
					aip = alpha * a.Data[p*a.Stride+i]
				} else {
					aip = alpha * a.Data[i*a.Stride+p]
				}
				brow := b.Data[p*b.Stride : p*b.Stride+n]
				for j, bv := range brow {
					crow[j] += aip * bv
				}
			}
		}
		return
	}
	// Dot form: op(B)(p, j) = B(j, p), so B's row j is contiguous over p.
	for i := 0; i < m; i++ {
		crow := c.Data[i*c.Stride : i*c.Stride+n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*b.Stride : j*b.Stride+k]
			var sum T
			if transA {
				for p, bv := range brow {
					sum += a.Data[p*a.Stride+i] * bv
				}
			} else {
				arow := a.Data[i*a.Stride : i*a.Stride+k]
				for p, av := range arow {
					sum += av * brow[p]
				}
			}
			if beta == 0 {
				crow[j] = alpha * sum
			} else {
				crow[j] = alpha*sum + beta*crow[j]
			}
		}
	}
}
