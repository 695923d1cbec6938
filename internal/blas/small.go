package blas

import "repro/internal/mat"

// Small-shape fast path: below a FLOP threshold the packed algorithm's
// panel copies, buffer setup and phase barriers dominate the useful work,
// so tiny GEMMs run a single-threaded blocked loop directly on the operands
// instead. The loop order is chosen per transB so the innermost loop
// always streams a contiguous row of B (or of C), which is what the packed
// layout would have bought anyway at these sizes.

// smallShapeLimit bounds m·n·k for the no-packing path. The limit was
// measured with the Go loops below as the small path (BenchmarkSmallCrossover's
// "loops" arm) against the packed path on the vector tile, single thread:
// the packed path overtakes the loops at 8³ for GEMM and at about 10³ for
// SYRK — 16³ already runs five times faster packed — so the limit is 8³.
// Against the scalar Go tile it was 40³; the fallback tile shares the new
// limit at no cost, it runs within 10 % of these loops from 12³ to 48³.
// Where the vector tile runs, the small path is now the loops' assembly
// ("vec"), which the packed GEMM overtakes only between 16³ and 32³ and the
// packed SYRK and SYR2K not yet at 32³. The limit stays: above it the packed
// tile rounds once per multiply-add and the small path twice, so moving it
// would change result bits (goldenVecTile). A variable rather than a constant
// so the test matrix can force either path.
var smallShapeLimit = 8 * 8 * 8

// smallShape reports whether an m×n×k problem should skip packing. It must
// depend only on the dimensions — never on the thread count — so that
// results stay bit-identical across thread counts. The product is taken in
// float64, exact far beyond any limit: in a 32-bit int 2048³ wraps to 0 and
// would send an 8.6-GFLOP call down the scalar loop.
func smallShape(m, n, k int) bool {
	return float64(m)*float64(n)*float64(k) <= float64(smallShapeLimit)
}

// narrowShape reports whether a packed call under the default blocking keeps
// the YMM tile where the default is the ZMM one: its C has no more columns
// than one YMM tile row (n ≤ 16 in float32, n ≤ 8 in float64). Every ZMM tile
// of such a call would be clipped — half or more of its lanes padding, its
// B panel packed by the scalar loop and its store through the stack block —
// where the YMM tile covers the same columns with one full tile or a clipped
// one half the width. Like smallShape it depends only on the dimensions, and
// both tiles sum every element in the same order, so the choice changes no
// result bit.
func narrowShape[T float32 | float64](n int) bool {
	return useZMM && n <= ymmNR[T]()
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

// The small path on the vector unit: where the vector tile runs (useVec),
// each call is one assembly call (kernel_amd64.s) that computes every
// element of C with the same multiplies and adds as the loops above, in the
// same order and with the same operand order, so the result is the same bit
// for bit, NaN payloads included. The loops stay the path everywhere else
// and the reference the assembly is tested against.
//
// GEMM without transB keeps the AXPY form, lanes over j. The dot forms — GEMM
// with transB, SYRK and SYR2K — become AXPY forms over j as well: lane j sums
// x(i, p) ⊗ y(p, j) over p = 0, 1, … from +0, where y(p, j) is op(B)(p, j)
// (GEMM) or op(A)(j, p). When y is not stored row-major the assembly first
// transposes it, as bits, into scratch. SYRK and SYR2K mirror their
// lower triangle in the same call.

// smallVec runs a small-path call in assembly. Symmetric updates come back
// mirrored. The scratch the lane operands are staged in grows with the
// Context, to the largest call seen; the wrappers below allocate nothing.
func smallVec[T float32 | float64](ctx *Context, op opKind, transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], m, n, k int) {
	// The lane operands that may need staging: op(B)ᵀ of a GEMM with
	// transB, A's rows of an untransposed SYRK, both operands' of SYR2K.
	operands := 0
	switch {
	case op == opGemm && transB, op == opSyrk && !transA:
		operands = 1
	case op == opSyr2k && !transA:
		operands = 2
	}
	bufs := bufsFor[T](ctx)
	if need := operands * staged[T](2, n, k); len(bufs.small) < need {
		bufs.small = make([]T, need)
	}
	switch op {
	case opGemm:
		smallGemmVec(transA, transB, alpha, a, b, beta, c, m, n, k, bufs.small)
	case opSyrk:
		xi, xp := opStrides(a.Stride, transA)
		dotVec(false, a.Data, xi, xp, a.Data, xp, xi, bufs.small, c, n, n, k, true, alpha, beta)
	default:
		smallSyr2kVec(transA, alpha, a, b, beta, c, n, k, bufs.small)
	}
}

// opStrides returns where op(M)(i, p) sits, M[i·si+p·sp], for M or Mᵀ.
func opStrides(stride int, trans bool) (si, sp int) {
	if trans {
		return 1, stride
	}
	return stride, 1
}

// smallGemmVec is smallGemm in one assembly call. The index expressions are
// the bounds check: the assembly touches nothing past the last element of
// op(A), op(B) and C they name.
//
//adsala:zeroalloc
func smallGemmVec[T float32 | float64](transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], m, n, k int, scr []T) {
	ai, ap := opStrides(a.Stride, transA)
	if transB {
		// op(B)(p, j) = B(j, p).
		dotVec(transA, a.Data, ai, ap, b.Data, 1, b.Stride, scr, c, m, n, k, false, alpha, beta)
		return
	}
	_, _, _ = a.Data[(m-1)*ai+(k-1)*ap], b.Data[(k-1)*b.Stride+n-1], c.Data[(m-1)*c.Stride+n-1]
	mode := storeScale
	if beta == 0 {
		mode = storeSet
	} else if beta == 1 {
		mode = storeAdd
	}
	switch cp := any(&c.Data[0]).(type) {
	case *float32:
		ssmallAxpy(any(&a.Data[0]).(*float32), ai, ap, any(&b.Data[0]).(*float32), b.Stride, cp, c.Stride, m, n, k, mode, float32(alpha), float32(beta))
	case *float64:
		dsmallAxpy(any(&a.Data[0]).(*float64), ai, ap, any(&b.Data[0]).(*float64), b.Stride, cp, c.Stride, m, n, k, mode, float64(alpha), float64(beta))
	}
}

// dotVec is a single-product dot form in one assembly call: C(i, j), j ≤ i
// under lower, ← alpha·Σp x[i·xi+p·xp]·y[p·yp+j·yj] (+ beta·C(i, j)), each
// product with x first, or y first under yFirst (the order of smallGemm's
// transA loop). Under lower (SYRK) m = n and C comes back mirrored.
//
//adsala:zeroalloc
func dotVec[T float32 | float64](yFirst bool, x []T, xi, xp int, y []T, yp, yj int, scr []T, c mat.Dense[T], m, n, k int, lower bool, alpha, beta T) {
	yj = laneStride(yj, n)
	scr = scr[:staged[T](yj, n, k)]
	_, _, _ = x[(m-1)*xi+(k-1)*xp], y[(k-1)*yp+(n-1)*yj], c.Data[(m-1)*c.Stride+n-1]
	low, mode := 0, storeScale
	if lower {
		low = 1
	}
	if beta == 0 {
		mode = storeSet
	}
	switch cp := any(&c.Data[0]).(type) {
	case *float32:
		xv, yv, sv := any(&x[0]).(*float32), any(&y[0]).(*float32), any(first(scr)).(*float32)
		if yFirst {
			ssmallDotT(xv, xi, xp, yv, yp, yj, sv, cp, c.Stride, m, n, k, low, mode, float32(alpha), float32(beta))
		} else {
			ssmallDot(xv, xi, xp, yv, yp, yj, sv, cp, c.Stride, m, n, k, low, mode, float32(alpha), float32(beta))
		}
	case *float64:
		xv, yv, sv := any(&x[0]).(*float64), any(&y[0]).(*float64), any(first(scr)).(*float64)
		if yFirst {
			dsmallDotT(xv, xi, xp, yv, yp, yj, sv, cp, c.Stride, m, n, k, low, mode, float64(alpha), float64(beta))
		} else {
			dsmallDot(xv, xi, xp, yv, yp, yj, sv, cp, c.Stride, m, n, k, low, mode, float64(alpha), float64(beta))
		}
	}
}

// smallSyr2kVec is smallSyr2k in one assembly call. With X, U = A, B the
// loop's sum is x(i, p)·u(j, p) + u(i, p)·x(j, p) over op(X), op(U); under
// trans the loop adds its second product to its first, so X, U = B, A.
//
//adsala:zeroalloc
func smallSyr2kVec[T float32 | float64](trans bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], n, k int, scr []T) {
	x, u := a, b
	if trans {
		x, u = b, a
	}
	xi, xp := opStrides(x.Stride, trans)
	ui, up := opStrides(u.Stride, trans)
	// The lane operands are op(U)ᵀ and op(X)ᵀ, staged one after the other.
	yj, vj := laneStride(ui, n), laneStride(xi, n)
	scr = scr[:staged[T](yj, n, k)+staged[T](vj, n, k)]
	_, _, _ = x.Data[(n-1)*xi+(k-1)*xp], u.Data[(n-1)*ui+(k-1)*up], c.Data[(n-1)*c.Stride+n-1]
	mode := storeScale
	if beta == 0 {
		mode = storeSet
	}
	switch cp := any(&c.Data[0]).(type) {
	case *float32:
		xv, uv := any(&x.Data[0]).(*float32), any(&u.Data[0]).(*float32)
		ssmallDot2(xv, xi, xp, uv, ui, up, uv, up, yj, xv, xp, vj, any(first(scr)).(*float32), cp, c.Stride, n, k, mode, float32(alpha), float32(beta))
	case *float64:
		xv, uv := any(&x.Data[0]).(*float64), any(&u.Data[0]).(*float64)
		dsmallDot2(xv, xi, xp, uv, ui, up, uv, up, yj, xv, xp, vj, any(first(scr)).(*float64), cp, c.Stride, n, k, mode, float64(alpha), float64(beta))
	}
}

// laneStride is the j stride the assembly is given for a lane operand of
// n columns: a single column never moves along j and is read in place, so
// its stride is taken as 1.
func laneStride(yj, n int) int {
	if n == 1 {
		return 1
	}
	return yj
}

// staged is how much scratch a k×n lane operand with j stride yj takes: none
// when it is read in place, row by row, else its transpose, staged in whole
// vector blocks: k and n rounded up to the vector length.
func staged[T float32 | float64](yj, n, k int) int {
	if yj == 1 {
		return 0
	}
	vl := vecBlock[T]()
	return (k + vl - 1) / vl * vl * ((n + vl - 1) / vl * vl)
}

// first is a pointer to s[0], or nil for an empty s.
func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}
