package blas

import (
	"fmt"

	"repro/internal/mat"
)

// SYRK — symmetric rank-k update, C ← alpha·op(A)·op(A)ᵀ + beta·C with
// op(A) = A (trans=false) or Aᵀ (trans=true). Only the lower triangle of C
// is computed; the upper triangle is mirrored from it afterwards, so the
// result is exactly symmetric and the upper-triangle content of the input C
// is never read.
//
// SYRK is the first of the paper's future-work targets ("extend our
// ML-driven runtime thread selection approach to other BLAS operations",
// §VII): its cost profile differs from GEMM — half the FLOPs for the same C,
// and triangular load imbalance across the thread team — so the serving
// layer keys its decisions per operation (see internal/serve.Op).
//
// The implementation is the same five-loop blocked-and-packed algorithm as
// GEMM, specialised to the triangular output: op(A)ᵀ plays the role of B
// (packBRange with the transpose flag flipped reads it straight out of A, no
// extra buffer), macro-tiles that lie entirely above the diagonal are
// skipped, diagonal-straddling tiles are masked at store time, and each part
// of the worker team owns a contiguous run of MR-row bands of C chosen so
// that the lower-triangle tiles, not the rows, are shared out evenly
// (syrkRows).

// SSYRK computes the single-precision symmetric rank-k update using the
// given number of worker goroutines (threads < 1 is treated as 1). The call
// runs on a pooled Context and allocates nothing in steady state.
func SSYRK(trans bool, alpha float32, a *mat.F32, beta float32, c *mat.F32, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.SSYRK(trans, alpha, a, beta, c, threads)
}

// DSYRK is the double-precision counterpart of SSYRK.
func DSYRK(trans bool, alpha float64, a *mat.F64, beta float64, c *mat.F64, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.DSYRK(trans, alpha, a, beta, c, threads)
}

// SSYRK computes C ← alpha·op(A)·op(A)ᵀ + beta·C in single precision on this
// context with the given number of threads (values < 1 mean 1).
func (c *Context) SSYRK(trans bool, alpha float32, a *mat.F32, beta float32, cm *mat.F32, threads int) error {
	av := view[float32]{a.Rows, a.Cols, a.Stride, a.Data}
	cv := view[float32]{cm.Rows, cm.Cols, cm.Stride, cm.Data}
	return syrkCtx(c, trans, alpha, av, beta, cv, threads, paramsFor[float32](c))
}

// DSYRK is the double-precision counterpart of SSYRK.
func (c *Context) DSYRK(trans bool, alpha float64, a *mat.F64, beta float64, cm *mat.F64, threads int) error {
	av := view[float64]{a.Rows, a.Cols, a.Stride, a.Data}
	cv := view[float64]{cm.Rows, cm.Cols, cm.Stride, cm.Data}
	return syrkCtx(c, trans, alpha, av, beta, cv, threads, paramsFor[float64](c))
}

// syrkCtx is the SYRK driver: argument checking, degenerate cases, the
// small-shape fast path, buffer/team setup and the worker dispatch. It
// mirrors gemmCtx with m = n and B = op(A)ᵀ.
func syrkCtx[T float32 | float64](ctx *Context, trans bool, alpha T, a view[T], beta T, c view[T], threads int, prm Params) error {
	if err := checkParams[T](prm); err != nil {
		return err
	}
	if err := checkOperands("SYRK", a, a, c); err != nil {
		return err
	}
	n, k := opDims(a, trans)
	if c.rows != n || c.cols != n {
		return fmt.Errorf("blas: SYRK C is %dx%d, want %dx%d", c.rows, c.cols, n, n)
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

	// Small shapes skip packing entirely, as in GEMM. The threshold depends
	// only on the dimensions, so results stay bit-identical across thread
	// counts.
	if prm == DefaultParams[T]() && smallShape(n, n, k) {
		smallSyrk(trans, alpha, a, beta, c, n, k)
		mirrorLower(c, 0, n)
		return nil
	}

	threads = min(threads, bands(n, prm.MR))

	kcEff := min(prm.KC, k)
	ncEff := min(prm.NC, (n+prm.NR-1)/prm.NR*prm.NR)
	mcEff := min(prm.MC, (n+prm.MR-1)/prm.MR*prm.MR)
	bufs := bufsFor[T](ctx)
	bufs.ensure(threads, mcEff*kcEff, kcEff*ncEff)
	bufs.args = callArgs[T]{
		transA: trans, transB: trans,
		alpha: alpha, beta: beta,
		a: a, b: a, c: c,
		m: n, n: n, k: k,
		parts: threads,
		prm:   prm,
		syrk:  true, mirror: true,
	}
	err := runCall(ctx, bufs, "SYRK")
	bufs.args = callArgs[T]{}
	return err
}

// syrkWorker is the per-part body of the blocked SYRK. The loop structure is
// the GEMM five-loop with B = op(A)ᵀ: within each (jc, pc) blocking
// iteration the shared op(A)ᵀ panel is packed cooperatively (phase 1), a
// barrier publishes it, each part then walks its own row range (syrkRows)
// in MC-sized blocks, packing and multiplying those that reach the lower
// triangle (phase 2), and a second barrier closes the iteration. Ownership
// decides only who computes a tile and per-element summation order depends
// only on the blocking loops, so the result is bit-identical for every
// parts value. After the last barrier the lower triangle is complete and
// each part mirrors its own row band into the upper triangle. A failed wait
// means a peer panicked: return.
func syrkWorker[T float32 | float64](ctx *Context, bufs *ctxBufs[T], w int) {
	ar := &bufs.args
	prm := ar.prm
	parts := ar.parts
	n, k := ar.n, ar.k
	for jc := 0; jc < n; jc += prm.NC {
		nc := min(prm.NC, n-jc)
		nPanels := (nc + prm.NR - 1) / prm.NR
		rlo, rhi := syrkRows(n, jc, nc, prm, w, parts)
		for pc := 0; pc < k; pc += prm.KC {
			kc := min(prm.KC, k-pc)
			first := pc == 0

			// The B-side operand of the symmetric update is op(b)ᵀ: flipping
			// the transpose flag makes packBRange read its panels straight
			// out of b (which is a itself for SYRK, the second operand for
			// each SYR2K pass).
			lo := nPanels * w / parts
			hi := nPanels * (w + 1) / parts
			packBRange(ar.b, !ar.transB, pc, jc, kc, nc, lo, hi, bufs.packedB, prm.NR)
			if !ctx.bar.wait() {
				return
			}

			for ic := rlo; ic < rhi; ic += prm.MC {
				mc := min(prm.MC, rhi-ic)
				// Columns jc..jc+ncb-1 reach the lower triangle of this
				// block (j ≤ i with i ≤ ic+mc-1); blocks entirely above the
				// diagonal are skipped before paying the A-packing copy.
				ncb := min(nc, ic+mc-jc)
				if ncb <= 0 {
					continue
				}
				if partHook != nil {
					partHook(w, pc)
				}
				packA(ar.a, ar.transA, ic, pc, mc, kc, bufs.packedA[w], prm.MR)
				syrkMacroKernel(ar.alpha, bufs.packedA[w], bufs.packedB, ar.beta, ar.c, ic, jc, mc, ncb, kc, first, prm)
			}
			if !ctx.bar.wait() {
				return
			}
		}
	}
	// The final barrier above published the whole lower triangle; mirror it
	// band-parallel (writes are disjoint rows of the upper triangle, reads
	// are the now read-only lower triangle). SYR2K's first pass skips the
	// mirror: its lower triangle is only half the update.
	if !ar.mirror {
		return
	}
	lo, hi := mirrorRange(n, w, parts)
	mirrorLower(ar.c, lo, hi)
}

// syrkBandWeight is the phase-2 cost of MR band b within the panel at jc:
// the NR tiles of its rows that reach the lower triangle,
// ceil(min(nc, i0+ib-jc)/NR) for rows i0..i0+ib-1. Zero when the band lies
// entirely above the diagonal.
func syrkBandWeight(b, n, jc, nc int, prm Params) int {
	i0 := b * prm.MR
	ib := min(prm.MR, n-i0)
	cols := min(nc, i0+ib-jc)
	if cols <= 0 {
		return 0
	}
	return (cols + prm.NR - 1) / prm.NR
}

// syrkRows returns the rows of C owned by part w in the jc panel. A part
// owns a contiguous run of MR bands; boundary x of the parts+1 boundaries is
// the first band at which the running tile count reaches x/parts of the
// panel's total, so every part's tile count is within one band's of
// total/parts whatever the rows-per-part come to — at n = 378 and two parts
// (6×16 tile) the split falls at row 270, 408 tiles against 376, where
// whole MC blocks gave rows 0–359 to one part. The split is a pure function
// of (n, jc, nc, prm, parts), never of timing.
func syrkRows(n, jc, nc int, prm Params, w, parts int) (lo, hi int) {
	if parts <= 1 {
		return 0, n
	}
	nb := bands(n, prm.MR)
	total := 0
	for b := 0; b < nb; b++ {
		total += syrkBandWeight(b, n, jc, nc, prm)
	}
	loTarget, hiTarget := total*w/parts, total*(w+1)/parts
	blo, bhi := nb, nb
	for b, acc := 0, 0; b < nb; b++ {
		if blo == nb && acc >= loTarget {
			blo = b
		}
		if w+1 < parts && acc >= hiTarget {
			bhi = b
			break
		}
		acc += syrkBandWeight(b, n, jc, nc, prm)
	}
	return min(blo*prm.MR, n), min(bhi*prm.MR, n)
}

// syrkMacroKernel multiplies the packed mc×kc A block with the packed
// op(A)ᵀ panel, updating only the lower-triangle part of
// C(ic:ic+mc, jc:jc+ncb). Tiles fully below the diagonal store through the
// ordinary storeTile; diagonal-straddling tiles compute the full MR×NR tile
// (the above-diagonal lanes are wasted FLOPs bounded by one tile per
// diagonal row) and mask the store to j ≤ i.
//
//adsala:zeroalloc
func syrkMacroKernel[T float32 | float64](alpha T, packedA, packedB []T, beta T, c view[T], ic, jc, mc, ncb, kc int, first bool, prm Params) {
	mr, nr := prm.MR, prm.NR
	var acc [maxTile]T
	for i0 := 0; i0 < mc; i0 += mr {
		ib := min(mr, mc-i0)
		// Tiles with j0 ≥ jLim have no element with j ≤ i for any row of
		// this MR band.
		jLim := min(ncb, ic+i0+ib-jc)
		if jLim <= 0 {
			continue
		}
		aPanel := packedA[(i0/mr)*kc*mr:]
		for j0 := 0; j0 < jLim; j0 += nr {
			jb := min(nr, jLim-j0)
			bPanel := packedB[(j0/nr)*kc*nr:]
			switch {
			case mr == goMR:
				micro4x4(aPanel, bPanel, kc, &acc)
			default: // the vector tile of T, enforced by checkParams
				microVec(aPanel, bPanel, kc, &acc)
			}
			ci, cj := ic+i0, jc+j0
			if cj+jb-1 <= ci {
				storeTile(alpha, beta, first, &acc, c, ci, cj, ib, jb, nr)
			} else {
				storeTileLower(alpha, beta, first, &acc, c, ci, cj, ib, jb, nr)
			}
		}
	}
}

// storeTileLower is storeTile masked to the lower triangle: row ci+i keeps
// only columns cj+j with j ≤ i.
func storeTileLower[T float32 | float64](alpha, beta T, first bool, acc *[maxTile]T, c view[T], ci, cj, ib, jb, nr int) {
	for i := 0; i < ib; i++ {
		jbRow := ci + i - cj + 1
		if jbRow > jb {
			jbRow = jb
		}
		if jbRow <= 0 {
			continue
		}
		row := c.data[(ci+i)*c.stride+cj : (ci+i)*c.stride+cj+jbRow]
		av := acc[i*nr : i*nr+jbRow]
		switch {
		case !first:
			if alpha == 1 {
				for j, v := range av {
					row[j] += v
				}
			} else {
				for j, v := range av {
					row[j] += alpha * v
				}
			}
		case beta == 0:
			if alpha == 1 {
				copy(row, av)
			} else {
				for j, v := range av {
					row[j] = alpha * v
				}
			}
		default:
			for j, v := range av {
				row[j] = beta*row[j] + alpha*v
			}
		}
	}
}

// smallSyrk computes the lower triangle of alpha·op(A)·op(A)ᵀ + beta·C
// without packing. Callers handle the degenerate n/k = 0 and alpha = 0
// cases and the mirror pass.
func smallSyrk[T float32 | float64](trans bool, alpha T, a view[T], beta T, c view[T], n, k int) {
	for i := 0; i < n; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		if !trans {
			// op(A) = A: rows i and j of A are contiguous dot operands.
			ai := a.data[i*a.stride : i*a.stride+k]
			for j := 0; j <= i; j++ {
				aj := a.data[j*a.stride : j*a.stride+k]
				var sum T
				for p, av := range ai {
					sum += av * aj[p]
				}
				if beta == 0 {
					row[j] = alpha * sum
				} else {
					row[j] = alpha*sum + beta*row[j]
				}
			}
			continue
		}
		// op(A) = Aᵀ: columns i and j of A, strided reads.
		for j := 0; j <= i; j++ {
			var sum T
			for p := 0; p < k; p++ {
				sum += a.data[p*a.stride+i] * a.data[p*a.stride+j]
			}
			if beta == 0 {
				row[j] = alpha * sum
			} else {
				row[j] = alpha*sum + beta*row[j]
			}
		}
	}
}

// scaleLower applies C ← beta·C to the lower triangle only.
func scaleLower[T float32 | float64](c view[T], beta T) {
	for i := 0; i < c.rows; i++ {
		row := c.data[i*c.stride : i*c.stride+i+1]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if beta != 1 {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

// mirrorTile is the edge of the square tiles mirrorLower copies in: 16
// float32 are one cache line.
const mirrorTile = 16

// mirrorLower copies the lower triangle into the upper for rows [lo, hi):
// C(i, j) ← C(j, i) for j > i. Writes land in disjoint upper-triangle rows
// and reads only the lower triangle, so disjoint bands run in parallel. The
// copy goes tile by tile — read mirrorTile row segments of the lower
// triangle, write them as the columns of mirrorTile row segments of the
// upper — so both sides of a tile stay in L1; walking a whole column of the
// lower triangle per output row instead costs a cache line per element.
func mirrorLower[T float32 | float64](c view[T], lo, hi int) {
	for i0 := lo; i0 < hi; i0 += mirrorTile {
		i1 := min(i0+mirrorTile, hi)
		for j0 := i0 + 1; j0 < c.cols; j0 += mirrorTile {
			j1 := min(j0+mirrorTile, c.cols)
			for j := j0; j < j1; j++ {
				// Source row j, columns i0..min(i1, j)-1: all below the diagonal.
				src := c.data[j*c.stride+i0 : j*c.stride+min(i1, j)]
				dst := i0*c.stride + j
				for _, v := range src {
					c.data[dst] = v
					dst += c.stride
				}
			}
		}
	}
}

// mirrorRange returns the mirror-pass row band of part w: row i carries
// n-1-i copies, so bands are sized by that reversed-triangular weight (the
// counterpart of triangularBands, computed without allocating).
func mirrorRange(n, w, parts int) (lo, hi int) {
	if parts <= 1 {
		return 0, n
	}
	total := float64(n) * float64(n-1) / 2
	bound := func(b int) int {
		if b >= parts {
			return n
		}
		target := total * float64(b) / float64(parts)
		var acc float64
		row := 0
		for row < n && acc < target {
			acc += float64(n - 1 - row)
			row++
		}
		return row
	}
	return bound(w), bound(w + 1)
}
