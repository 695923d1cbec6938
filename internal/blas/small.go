package blas

import "repro/internal/mat"

// Small-shape fast path: below a FLOP threshold the packed algorithm's
// panel copies, buffer setup and phase barriers dominate the useful work,
// so tiny calls read their operands in place on one thread instead. Each
// element of C is computed with the packed tile's own arithmetic — on the
// vector unit in assembly, elsewhere by the Go pass — so which path a call
// takes moves no result bit, only time and the thread count.

// smallShapeLimit bounds m·n·k for the no-packing path, per op (indexed by
// opKind): [0] where the Go pass runs it, [1] where it runs on the vector
// unit. A variable rather than a constant so the test matrix can force
// either path.
//
// A call under the limit runs one thread whatever was asked. It also needs
// k ≤ defaultKC: the packed path sums an element in chunks of KC, the small
// path in one chain. On the vector unit, measured with
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
// The Go pass stages nothing, and its limit is 20³ for all three ops. At one
// thread it beats the packed Go tile at every cube of the sweep up to 40³
// (go / gopacked arms), but at two the packed GEMM catches up: 24³ GEMM nn
// runs 10 500 ns on the Go pass and 10 763 packed at two threads, ahead in 5
// of 10 runs; 32³ GEMM nt 26 328 against 19 860, behind in 10 of 10
// (gopacked2 arm, float32, 2-vCPU Xeon, medians of ten). At 20³ and every
// swept shape under it the Go pass wins at one and at two threads, for all
// three ops (README "Small path on the Go tile").
var smallShapeLimit = [2][3]int{
	{20 * 20 * 20, 20 * 20 * 20, 20 * 20 * 20},
	{16 * 16 * 16, 32 * 32 * 32, 32 * 32 * 32},
}

// smallShape reports whether an m×n×k call of op should skip packing. It
// depends only on the dimensions and the host — never on the thread count.
// The product is taken in float64, exact far beyond any limit: in a 32-bit
// int 2048³ wraps to 0 and would send an 8.6-GFLOP call down the small path.
func smallShape(op opKind, m, n, k int) bool {
	limit := smallShapeLimit[0][op]
	if useVec {
		limit = smallShapeLimit[1][op]
	}
	return k <= defaultKC && float64(m)*float64(n)*float64(k) <= float64(limit)
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

// A small-path call computes each element of C as the packed path does:
// C(i, j) ← alpha·Σp x(i, p)·y(p, j) (+ beta·C(i, j)) over all of C or its
// lower triangle, x(i, p) being op(A)(i, p) and y(p, j) what the packed
// path's B panel holds, op(B)(p, j) for GEMM and op(B)(j, p) for a lower
// pass. SYR2K adds the product with the operands swapped as the packed
// SYR2K's second pass does: alpha·op(B)·op(A)ᵀ, stored with beta = 1. The
// symmetric updates end with the mirror. Where the vector tile runs (useVec),
// each product is one assembly call (kernel_amd64.s): a +0 accumulator, one
// fused multiply-add per p in ascending p, the B-panel operand in the lanes
// and the A-panel operand broadcast, then alpha·acc stored by storeSet or
// storeScale — the packed tile's bits, NaN payloads included. Elsewhere
// goPass computes them with the Go tile's arithmetic.

// The lower argument of a pass: what of C it computes. The assembly takes
// the first three.
const (
	fullC       = iota // all of C
	lowerOnly          // C's lower triangle
	lowerMirror        // C's lower triangle, then mirrored
	rank2              // as lowerMirror, adding the product with x and y swapped
)

// smallCall runs a small-path call on one thread. The scratch the vector
// pass stages lane operands in grows with the Context, to the largest call
// seen.
func smallCall[T float32 | float64](ctx *Context, op opKind, transA, transB bool, alpha T, a, b mat.Dense[T], beta T, c mat.Dense[T], m, n, k int) {
	bufs := bufsFor[T](ctx)
	xi, xp := opStrides(a.Stride, transA)
	switch op {
	case opGemm:
		// y(p, j) = op(B)(p, j).
		yp, yj := opStrides(b.Stride, transB)
		smallPass(bufs, a.Data, xi, xp, b.Data, yp, yj, c, m, n, k, fullC, alpha, beta)
	case opSyrk:
		// y(p, j) = op(A)(j, p).
		smallPass(bufs, a.Data, xi, xp, a.Data, xp, xi, c, n, n, k, lowerMirror, alpha, beta)
	default:
		// y(p, j) = op(B)(j, p), and swapped x(i, p) = op(B)(i, p),
		// y(p, j) = op(A)(j, p).
		bi, bp := opStrides(b.Stride, transA)
		smallPass(bufs, a.Data, xi, xp, b.Data, bp, bi, c, n, n, k, rank2, alpha, beta)
	}
}

// smallPass computes C(i, j) ← alpha·Σp x(i, p)·y(p, j) (+ beta·C(i, j))
// with x(i, p) = x[i·xi+p·xp] and y(p, j) = y[p·yp+j·yj], over what lower
// names (m = n unless fullC). One of y's strides is 1. Under rank2 the swap
// is x(i, p) = y[i·yj+p·yp] and y(p, j) = x[p·xp+j·xi].
func smallPass[T float32 | float64](bufs *ctxBufs[T], x []T, xi, xp int, y []T, yp, yj int, c mat.Dense[T], m, n, k, lower int, alpha, beta T) {
	if !useVec {
		goPass(x, xi, xp, y, yp, yj, c, m, n, k, lower, alpha, beta)
		return
	}
	if lower == rank2 {
		vecPass(x, xi, xp, y, yp, laneStride(yj, n), stage(bufs, yj, n, k), c, m, n, k, lowerOnly, alpha, beta)
		x, xi, xp, y, yp, yj, lower, beta = y, yj, yp, x, xp, xi, lowerMirror, 1
	}
	vecPass(x, xi, xp, y, yp, laneStride(yj, n), stage(bufs, yj, n, k), c, m, n, k, lower, alpha, beta)
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

// vecPass is one product in one assembly call, ssmall or dsmall. scr is the
// staging scratch for y (stage). The index expressions are the bounds check:
// the assembly touches nothing past the last element of x, y, scr and C
// they name.
//
//adsala:zeroalloc
func vecPass[T float32 | float64](x []T, xi, xp int, y []T, yp, yj int, scr []T, c mat.Dense[T], m, n, k, lower int, alpha, beta T) {
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

// goPass is smallPass with the Go tile's arithmetic: each element sums from
// +0, one sum += x·y per p in ascending p (micro4x4's operand order), and
// storeFirst stores it as storeTile stores a packed call's first KC chunk.
// So the result is the packed Go path's bit for bit, except for which
// payload a NaN carries: gc picks the operand order of each product. It sums
// two rows by four columns at a time into sums, a row chunk of goChunk
// columns each, and then stores them. A lower pass runs each pair of rows up
// to the group of four that holds the second one's diagonal; what that
// stores above the diagonal, the mirror overwrites. A rank2 pass sums the
// first product over all of C, and goStore makes both products of it.
//
//adsala:zeroalloc
func goPass[T float32 | float64](x []T, xi, xp int, y []T, yp, yj int, c mat.Dense[T], m, n, k, lower int, alpha, beta T) {
	var sums [2 * goChunk]T
	for i := 0; i < m; i += 2 {
		i1 := min(i+1, m-1) // an odd last row is summed twice, stored once
		cols := n
		if lower == lowerMirror {
			cols = min(n, (i1+4)&^3)
		}
		x0, x1 := x[i*xi:], x[i1*xi:]
		for j0 := 0; j0 < cols; j0 += goChunk {
			w := min(goChunk, cols-j0)
			s0, s1 := sums[:w], sums[goChunk:goChunk+w]
			j := 0
			for ; j+4 <= w; j += 4 {
				s0[j], s0[j+1], s0[j+2], s0[j+3], s1[j], s1[j+1], s1[j+2], s1[j+3] = sums2x4(x0, x1, xp, y[(j0+j)*yj:], yp, yj, k)
			}
			for ; j < w; j++ {
				s0[j], s1[j] = sum1(x0, xp, y[(j0+j)*yj:], yp, k), sum1(x1, xp, y[(j0+j)*yj:], yp, k)
			}
			goStore(c, i, j0, s0, lower, alpha, beta)
			if i1 > i {
				goStore(c, i1, j0, s1, lower, alpha, beta)
			}
		}
	}
	if lower != fullC {
		mirrorLower(c, 0, m)
	}
}

// goChunk is how many columns of a row goPass sums before it stores them.
// Even, so that a pair of rows i, i+1 never has its diagonal elements in two
// chunks (see goStore).
const goChunk = 32

// goStore stores the sums s of row i of C from column j0 on. Under rank2 s
// is that row of the first product in full: where j ≤ i it is the first
// product's sum for C(i, j), stored with beta; where j > i it is the second
// product's sum for C(j, i) — the same products in the same order — and is
// kept in C(i, j), which the mirror overwrites, until row j stores it with
// beta = 1, beside its own on the diagonal.
func goStore[T float32 | float64](c mat.Dense[T], i, j0 int, s []T, lower int, alpha, beta T) {
	crow := c.Data[i*c.Stride+j0:][:len(s)]
	if lower != rank2 {
		storeFirst(alpha, beta, crow, s)
		return
	}
	d := min(max(i+1-j0, 0), len(s))
	storeFirst(alpha, beta, crow[:d], s[:d])
	copy(crow[d:], s[d:])
	for q := range s[:d] {
		if j := j0 + q; j < i {
			s[q] = c.Data[j*c.Stride+i]
		}
	}
	storeFirst(alpha, 1, crow[:d], s[:d])
}

// sums2x4 returns Σp x0[p·xp]·y[p·yp+q·yj] and the same of x1, p < k, for the
// four columns q < 4, in eight add chains: along the rows of y where they
// are contiguous (yj = 1), else down its four columns (yp = 1).
func sums2x4[T float32 | float64](x0, x1 []T, xp int, y []T, yp, yj, k int) (s0, s1, s2, s3, t0, t1, t2, t3 T) {
	if yj == 1 {
		for p, o, q := 0, 0, 0; p < k; p, o, q = p+1, o+xp, q+yp {
			u, v, yr := x0[o], x1[o], y[q:q+4]
			s0 += u * yr[0]
			s1 += u * yr[1]
			s2 += u * yr[2]
			s3 += u * yr[3]
			t0 += v * yr[0]
			t1 += v * yr[1]
			t2 += v * yr[2]
			t3 += v * yr[3]
		}
		return
	}
	y0, y1, y2, y3 := y[:k], y[yj:][:k], y[2*yj:][:k], y[3*yj:][:k]
	if xp == 1 {
		x0, x1 = x0[:k], x1[:k]
		for p, w := range y0 {
			u, v := x0[p], x1[p]
			s0 += u * w
			s1 += u * y1[p]
			s2 += u * y2[p]
			s3 += u * y3[p]
			t0 += v * w
			t1 += v * y1[p]
			t2 += v * y2[p]
			t3 += v * y3[p]
		}
		return
	}
	for p, o := 0, 0; p < k; p, o = p+1, o+xp {
		u, v := x0[o], x1[o]
		s0 += u * y0[p]
		s1 += u * y1[p]
		s2 += u * y2[p]
		s3 += u * y3[p]
		t0 += v * y0[p]
		t1 += v * y1[p]
		t2 += v * y2[p]
		t3 += v * y3[p]
	}
	return
}

// sum1 returns Σp x[p·xp]·y[p·yp], p < k.
func sum1[T float32 | float64](x []T, xp int, y []T, yp, k int) (s T) {
	for p := 0; p < k; p++ {
		s += x[p*xp] * y[p*yp]
	}
	return s
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
