package blas

import "repro/internal/mat"

// Small-shape fast path: below a FLOP threshold the packed algorithm's
// panel copies, buffer setup and phase barriers dominate the useful work,
// so tiny GEMMs run a single-threaded blocked loop directly on the operands
// instead. The loop order is chosen per transB so the innermost loop
// always streams a contiguous row of B (or of C), which is what the packed
// layout would have bought anyway at these sizes.

// smallShapeLimit bounds m·n·k for the no-packing path, per op (indexed by
// opKind): [1] where the small path runs on the vector unit, SYR2K counting
// k once, as SYRK does; [0] where it is the Go loops, SYR2K counting k
// rounded up to even (see smallShape). A variable rather than a
// constant so the test matrix can force either path.
//
// On the vector unit the small path computes every element with the packed
// tile's arithmetic (see smallVec), so the limit moves no result bit — only
// time, and the thread count: a call under it runs one thread whatever was
// asked. It also needs k ≤ defaultKC there: the packed path sums an element
// in chunks of KC, the small path in one chain. Measured with
// BenchmarkSmallCrossover (float32, 2-vCPU AVX-512 Xeon, medians of five, ns:
// small path / packed at one thread / packed at two): GEMM 16³ 278 / 873 /
// 3094, 24³ 666 / 1664 / 4273, 32³ 1363 / 1715 / 4373, 40³ 2949 / 5520 / 7936;
// SYRK 32³ 1749 / 2917 / 7157, 40³ 2738 / 6021 / 9184; SYR2K 32³ 2337 /
// 6030 / 12356, 40³ 4961 / 10160 / 15896. The small path wins at one thread
// throughout, and a second thread adds at least one team round: 2.2–2.7 µs
// here (packed at two less packed at one for GEMM; SYR2K pays two rounds).
// Up to 32³ each op's one-thread small call costs less than one round alone,
// so no thread count can beat it; at 40³ none does. That ceiling holds for
// this box only: the round was measured on 2 vCPUs, and on a host with more
// cores, where a packed call could split over more threads, it is
// unverified. So:
//   - SYRK and SYR2K 32³. Their staging takes at most 16 KiB in float32,
//     24.5 KiB in float64.
//   - GEMM 16³: the lane operand a GEMM with transB and a padded B stages
//     grows with the limit — k·n rounded up to whole 8×8 (float32) or 4×4
//     (float64) blocks, at most 32 bytes per unit of it, at k = 1 — and the
//     Context keeps it: 128 KiB at 16³, 1 MiB at 32³.
//
// TestSmallScratchBound holds the staging bounds at the worst shapes.
//
// The Go loops round twice per multiply-add where the Go tile rounds once
// (unless gc fuses), so there the limit decides result bits. It stays 8³,
// where the packed Go tile overtakes the loops; SYR2K keeps its
// n·n·⌈k/2⌉ ≤ 8³, taken as n·n·2⌈k/2⌉ ≤ 2·8³.
var smallShapeLimit = [2][3]int{
	{8 * 8 * 8, 8 * 8 * 8, 2 * 8 * 8 * 8},
	{16 * 16 * 16, 32 * 32 * 32, 32 * 32 * 32},
}

// smallShape reports whether an m×n×k call of op should skip packing. It
// depends only on the dimensions and the host — never on the thread count.
// The product is taken in float64, exact far beyond any limit: in a 32-bit
// int 2048³ wraps to 0 and would send an 8.6-GFLOP call down the small path.
func smallShape(op opKind, m, n, k int) bool {
	if useVec {
		return k <= defaultKC && float64(m)*float64(n)*float64(k) <= float64(smallShapeLimit[1][op])
	}
	kk := float64(k)
	if op == opSyr2k {
		kk += float64(k & 1) // 2⌈k/2⌉
	}
	return float64(m)*float64(n)*kk <= float64(smallShapeLimit[0][op])
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
// each call is one assembly call per pass (kernel_amd64.s) that computes
// every element of C exactly as the packed tile does — a +0 accumulator, one
// fused multiply-add per p in ascending p, the B-panel operand in the lanes
// and the A-panel operand broadcast, then alpha·acc stored by storeSet or
// storeScale — so the result is the packed path's bit for bit, NaN payloads
// included, and which path a call takes moves no bit. The operands are read
// in place: x(i, p) is op(A)(i, p), y(p, j) is what the packed path's B panel
// holds, op(B)(p, j) for GEMM and op(B)(j, p) for a lower pass. When y is not
// stored row-major the assembly first transposes it, as bits, into scratch.
// SYR2K runs like the packed SYR2K: a lower pass of alpha·op(A)·op(B)ᵀ with
// beta, a second of alpha·op(B)·op(A)ᵀ with beta = 1, then the mirror (which
// SYRK's one pass ends with too). The loops stay the path everywhere else.

// The lower argument of ssmall and dsmall.
const (
	fullC       = iota // all of C
	lowerOnly          // C's lower triangle
	lowerMirror        // C's lower triangle, then mirrored
)

// smallVec runs a small-path call in assembly. The scratch the lane
// operands are staged in grows with the Context, to the largest call seen;
// smallPass allocates nothing.
func smallVec[T float32 | float64](ctx *Context, op opKind, transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], m, n, k int) {
	bufs := bufsFor[T](ctx)
	xi, xp := opStrides(a.Stride, transA)
	switch op {
	case opGemm:
		// y(p, j) = op(B)(p, j).
		yp, yj := opStrides(b.Stride, transB)
		smallPass(a.Data, xi, xp, b.Data, yp, yj, stage(bufs, yj, n, k), c, m, n, k, fullC, alpha, beta)
	case opSyrk:
		// y(p, j) = op(A)(j, p).
		smallPass(a.Data, xi, xp, a.Data, xp, xi, stage(bufs, xi, n, k), c, n, n, k, lowerMirror, alpha, beta)
	default:
		bi, bp := opStrides(b.Stride, transA)
		smallPass(a.Data, xi, xp, b.Data, bp, bi, stage(bufs, bi, n, k), c, n, n, k, lowerOnly, alpha, beta)
		smallPass(b.Data, bi, bp, a.Data, xp, xi, stage(bufs, xi, n, k), c, n, n, k, lowerMirror, alpha, 1)
	}
}

// stage returns the scratch a k×n lane operand with j stride yj is staged
// in, growing the context's to fit.
func stage[T float32 | float64](bufs *ctxBufs[T], yj, n, k int) []T {
	need := staged[T](laneStride(yj, n), n, k)
	if len(bufs.small) < need {
		bufs.small = make([]T, need)
	}
	return bufs.small[:need]
}

// opStrides returns where op(M)(i, p) sits, M[i·si+p·sp], for M or Mᵀ.
func opStrides(stride int, trans bool) (si, sp int) {
	if trans {
		return 1, stride
	}
	return stride, 1
}

// smallPass is one pass in one assembly call: C(i, j) ← alpha·Σp x(i, p)·
// y(p, j) (+ beta·C(i, j)) with x(i, p) = x[i·xi+p·xp] and y(p, j) =
// y[p·yp+j·yj], over all of C or, by lower, its lower triangle (m = n). scr
// is the staging scratch for y (stage). The index expressions are the bounds
// check: the assembly touches nothing past the last element of x, y and C
// they name.
//
//adsala:zeroalloc
func smallPass[T float32 | float64](x []T, xi, xp int, y []T, yp, yj int, scr []T, c mat.Dense[T], m, n, k, lower int, alpha, beta T) {
	yj = laneStride(yj, n)
	scr = scr[:staged[T](yj, n, k)]
	_, _, _ = x[(m-1)*xi+(k-1)*xp], y[(k-1)*yp+(n-1)*yj], c.Data[(m-1)*c.Stride+n-1]
	mode := storeScale
	if beta == 0 {
		mode = storeSet
	}
	switch cp := any(&c.Data[0]).(type) {
	case *float32:
		ssmall(any(&x[0]).(*float32), xi, xp, any(&y[0]).(*float32), yp, yj, any(first(scr)).(*float32), cp, c.Stride, m, n, k, lower, mode, float32(alpha), float32(beta))
	case *float64:
		dsmall(any(&x[0]).(*float64), xi, xp, any(&y[0]).(*float64), yp, yj, any(first(scr)).(*float64), cp, c.Stride, m, n, k, lower, mode, float64(alpha), float64(beta))
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
	vm := vecBlock[T]() - 1
	return (k + vm) &^ vm * ((n + vm) &^ vm)
}

// first is a pointer to s[0], or nil for an empty s.
func first[T any](s []T) *T {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}
