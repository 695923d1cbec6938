package blas

import "repro/internal/mat"

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
// There is no SYRK kernel: the update is the lower pass of the one five-loop
// (drive and worker in context.go) with b = a. op(A)ᵀ plays the role of B
// (packBRange with the transpose flag flipped reads it straight out of A, no
// extra buffer), macro-tiles that lie entirely above the diagonal are
// skipped, diagonal-straddling tiles are masked at store time, and each part
// of the worker team owns a contiguous run of MR-row bands of C chosen so
// that the lower-triangle tiles, not the rows, are shared out evenly
// (syrkRows). What this file holds is what only the symmetric updates need:
// that partition and the mirror.

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
	return drive(c, opSyrk, trans, trans, alpha, *a, *a, beta, *cm, threads, c.Params)
}

// DSYRK is the double-precision counterpart of SSYRK.
func (c *Context) DSYRK(trans bool, alpha float64, a *mat.F64, beta float64, cm *mat.F64, threads int) error {
	return drive(c, opSyrk, trans, trans, alpha, *a, *a, beta, *cm, threads, c.Params)
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
//
// A tile wholly below the diagonal is a plain transpose, and where the vector
// kernels run the whole blocks of a full-height tile row go through
// transposeVec in one call. The tile on the diagonal is copied in vecBlock
// rows at a time, the same way: a block row's whole blocks left of the
// diagonal read only the lower triangle too. What straddles the diagonal
// (there a block transpose would read the upper triangle, which another part
// may be writing just then), the ragged columns at the right edge and a
// band's last, short tile row stay on the scalar loop.
func mirrorLower[T float32 | float64](c mat.Dense[T], lo, hi int) {
	for i0 := lo; i0 < hi; i0 += mirrorTile {
		i1 := min(i0+mirrorTile, hi)
		// Source rows from i1 down lie below the diagonal in every column
		// of this tile row: n of them, in whole blocks, are the vector part.
		n := 0
		if useVec && i1-i0 == mirrorTile {
			n = (c.Cols - i1) &^ (vecBlock[T]() - 1)
		}
		mirrorDiag(c, i0, i1)
		if n > 0 {
			transposeVec(c.Data[i0*c.Stride+i1:], c.Stride, c.Data[i1*c.Stride+i0:], c.Stride, n, mirrorTile)
		}
		mirrorCols(c, i0, i1, i1+n, c.Cols)
	}
}

// mirrorDiag mirrors the tile of rows and columns [i0, i1) on the diagonal.
// Where the vector kernels run, each full block row [b0, b0+vb) copies the
// whole blocks right of its diagonal block, whose sources are rows b0+vb on
// below its columns, with one transposeVec; only the diagonal blocks and the
// ragged columns at the tile's edge stay on the scalar loop.
func mirrorDiag[T float32 | float64](c mat.Dense[T], i0, i1 int) {
	if !useVec {
		mirrorCols(c, i0, i1, i0+1, i1)
		return
	}
	vb := vecBlock[T]()
	for b0 := i0; b0 < i1; b0 += vb {
		b1 := min(b0+vb, i1)
		mirrorCols(c, b0, b1, b0+1, b1)
		n := 0
		if b1-b0 == vb {
			n = (i1 - b1) &^ (vb - 1)
		}
		if n > 0 {
			transposeVec(c.Data[b0*c.Stride+b1:], c.Stride, c.Data[b1*c.Stride+b0:], c.Stride, n, vb)
		}
		mirrorCols(c, b0, b1, b1+n, i1)
	}
}

// mirrorCols is the scalar mirror of rows [i0, i1) into columns [jlo, jhi),
// tile by tile: C(i, j) ← C(j, i) for the j > i among them.
func mirrorCols[T float32 | float64](c mat.Dense[T], i0, i1, jlo, jhi int) {
	for j0 := jlo; j0 < jhi; j0 += mirrorTile {
		j1 := min(j0+mirrorTile, jhi)
		for j := j0; j < j1; j++ {
			// Source row j, columns i0..min(i1, j)-1: all below the diagonal.
			src := c.Data[j*c.Stride+i0 : j*c.Stride+min(i1, j)]
			dst := i0*c.Stride + j
			for _, v := range src {
				c.Data[dst] = v
				dst += c.Stride
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
	return mirrorBound(n, w, parts), mirrorBound(n, w+1, parts)
}

// mirrorBound is boundary b of the parts+1 band boundaries of mirrorRange:
// the first row at which the running copy count reaches b/parts of the total.
func mirrorBound(n, b, parts int) int {
	if b >= parts {
		return n
	}
	total := float64(n) * float64(n-1) / 2
	target := total * float64(b) / float64(parts)
	var acc float64
	row := 0
	for row < n && acc < target {
		acc += float64(n - 1 - row)
		row++
	}
	return row
}
