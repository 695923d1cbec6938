package blas

import "repro/internal/mat"

// NaiveSGEMM is the unblocked triple-loop reference used to validate the
// packed kernel. It applies the same op()/alpha/beta semantics as SGEMM.
func NaiveSGEMM(transA, transB bool, alpha float32, a *mat.F32, b *mat.F32, beta float32, c *mat.F32) {
	naive(transA, transB, alpha, *a, *b, beta, *c)
}

// NaiveDGEMM is the double-precision reference.
func NaiveDGEMM(transA, transB bool, alpha float64, a *mat.F64, b *mat.F64, beta float64, c *mat.F64) {
	naive(transA, transB, alpha, *a, *b, beta, *c)
}

// NaiveSSYRK is the unblocked per-element SYRK reference (the pre-packed
// implementation, minus its per-call goroutine fork/join): it computes the
// lower triangle of alpha·op(A)·op(A)ᵀ + beta·C serially and mirrors it.
// The packed SSYRK is validated — and its speedup measured — against it.
func NaiveSSYRK(trans bool, alpha float32, a *mat.F32, beta float32, c *mat.F32) {
	naiveSyrk(trans, alpha, *a, beta, *c)
}

// NaiveDSYRK is the double-precision SYRK reference.
func NaiveDSYRK(trans bool, alpha float64, a *mat.F64, beta float64, c *mat.F64) {
	naiveSyrk(trans, alpha, *a, beta, *c)
}

// NaiveSSYR2K is the unblocked per-element SYR2K reference: it computes the
// lower triangle of alpha·(op(A)·op(B)ᵀ + op(B)·op(A)ᵀ) + beta·C serially
// and mirrors it. The packed SSYR2K is validated against it.
func NaiveSSYR2K(trans bool, alpha float32, a, b *mat.F32, beta float32, c *mat.F32) {
	naiveSyr2k(trans, alpha, *a, *b, beta, *c)
}

// NaiveDSYR2K is the double-precision SYR2K reference.
func NaiveDSYR2K(trans bool, alpha float64, a, b *mat.F64, beta float64, c *mat.F64) {
	naiveSyr2k(trans, alpha, *a, *b, beta, *c)
}

func naiveSyr2k[T float32 | float64](trans bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T]) {
	n, k := opDims(a, trans)
	for i := 0; i < n; i++ {
		row := c.Data[i*c.Stride:]
		for j := 0; j <= i; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += opAt(a, trans, i, p)*opAt(b, trans, j, p) +
					opAt(b, trans, i, p)*opAt(a, trans, j, p)
			}
			row[j] = alpha*sum + beta*row[j]
		}
	}
	mirrorLower(c, 0, n)
}

func naiveSyrk[T float32 | float64](trans bool, alpha T, a mat.Dense[T], beta T, c mat.Dense[T]) {
	n, k := opDims(a, trans)
	for i := 0; i < n; i++ {
		row := c.Data[i*c.Stride:]
		for j := 0; j <= i; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += opAt(a, trans, i, p) * opAt(a, trans, j, p)
			}
			row[j] = alpha*sum + beta*row[j]
		}
	}
	mirrorLower(c, 0, n)
}

func naive[T float32 | float64](transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T]) {
	m, k := opDims(a, transA)
	_, n := opDims(b, transB)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += opAt(a, transA, i, p) * opAt(b, transB, p, j)
			}
			c.Data[i*c.Stride+j] = alpha*sum + beta*c.Data[i*c.Stride+j]
		}
	}
}
