package blas

import (
	"unsafe"

	"repro/internal/mat"
)

// Register micro-kernels. There are three tiles. The two vector tiles are 6
// rows by two vector registers: twelve accumulator registers, two for the
// streamed B row and two for the broadcast A values. On YMM registers (6×16 in
// float32, 6×8 in float64) that fills the sixteen of AVX2; on ZMM registers
// (6×32, 6×16) each multiply-add does twice the work. Both run an order of
// magnitude faster than anything gc compiles from Go, which keeps one scalar
// per XMM register. They are hand-written assembly (kernel_amd64.s); the
// default is the ZMM tile wherever AVX-512 runs and the YMM tile wherever only
// AVX2 does. The Go 4×4 tile with the k loop unrolled 4× is the portable
// fallback: every non-amd64 GOARCH, and amd64 without AVX2/FMA. The
// macro-kernel dispatches on the (MR, NR) pair from params; validate
// restricts callers to these tiles. Every lane of either vector tile sums one
// element in ascending p with one rounding per multiply-add, so the two give
// the same bits, and which one a call runs is a matter of speed only.
//
// A full vector tile in the interior of C is stored from the accumulator
// registers by the assembly's own epilogue. Every other tile — cut by the
// edge of C or by the diagonal of a lower pass, and every tile of the Go
// kernel — lands in a stack block and goes through storeTile, the one Go
// store and the definition of what the epilogue must compute bit for bit
// (storeFirst, its first-chunk half, stores the Go small path too).
const (
	goMR, goNR = 4, 4
	vecMR      = 6
	// maxTile is the largest MR*NR product across the tiles (6×32, the ZMM
	// tile in float32); the macro-kernel's accumulator block is sized to it.
	maxTile = vecMR * 32
)

// useVec and useZMM are the CPU probes' answers, taken once: whether the YMM
// tile, and on top of it the ZMM tile, may run. The widest tile that may is
// the default and both are accepted by validate. Variables only so in-package
// tests can force the narrower tiles on a wider machine.
var (
	useVec = cpuHasVectorTile()
	useZMM = cpuHasZMM()
)

// ymmNR and zmmNR are the vector tiles' widths in elements of T: two 32-byte
// YMM registers, or two 64-byte ZMM registers.
func ymmNR[T float32 | float64]() int { return 64 / sizeOf[T]() }
func zmmNR[T float32 | float64]() int { return 128 / sizeOf[T]() }

func sizeOf[T float32 | float64]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// vecNR is the default vector tile's width: the ZMM tile's where it runs.
func vecNR[T float32 | float64]() int {
	if useZMM {
		return zmmNR[T]()
	}
	return ymmNR[T]()
}

// isVecNR reports whether nr is the width of a vector tile of T this CPU
// runs.
func isVecNR[T float32 | float64](nr int) bool {
	return useVec && nr == ymmNR[T]() || useZMM && nr == zmmNR[T]()
}

// vecBlock is the edge of the square block the vector transposes move (pack.go,
// mirrorLower): the elements of T in one YMM register, whichever tile runs.
func vecBlock[T float32 | float64]() int { return 32 / sizeOf[T]() }

// The stores of the vector tile's epilogue (the mode of tileVec), one per arm
// of storeTile.
const (
	storeSet   = iota // c ← alpha·acc; c is not read
	storeAdd          // c ← c + alpha·acc
	storeScale        // c ← beta·c + alpha·acc
)

// macroKernel multiplies the packed mc×kc A block with the packed kc×nc B
// panel, updating C(ic:ic+mc, jc:jc+nc). first selects whether beta is
// applied (only on the first KC iteration). Under lower only the elements on
// or below the diagonal are updated: each MR band stops at the last tile that
// reaches it, and diagonal-straddling tiles compute the full MR×NR tile (the
// above-diagonal lanes are wasted FLOPs bounded by one tile per diagonal row)
// and have their store cut to j ≤ i (storeTile's diag).
//
//adsala:zeroalloc
func macroKernel[T float32 | float64](alpha T, packedA, packedB []T, beta T, c mat.Dense[T], ic, jc, mc, nc, kc int, first, lower bool, prm params) {
	mr, nr := prm.MR, prm.NR
	vec := mr == vecMR // the vector tile of T, enforced by checkParams
	mode := storeAdd
	if first {
		mode = storeScale
		if beta == 0 {
			mode = storeSet
		}
	}
	var acc [maxTile]T
	for i0 := 0; i0 < mc; i0 += mr {
		ib := min(mr, mc-i0)
		jLim := reach(lower, nc, ic+i0+ib, jc)
		aPanel := packedA[(i0/mr)*kc*mr:]
		for j0 := 0; j0 < jLim; j0 += nr {
			jb := min(nr, jLim-j0)
			bPanel := packedB[(j0/nr)*kc*nr:]
			ci, cj := ic+i0, jc+j0
			diag := jb // cuts no row
			if lower {
				diag = ci - cj
			}
			if vec && ib == mr && jb == nr && diag >= nr-1 {
				// Nothing clips this tile: C is its accumulator block.
				tileVec(aPanel, bPanel, kc, nr, c.Data[ci*c.Stride+cj:], c.Stride, alpha, beta, mode)
				continue
			}
			if vec {
				microVec(aPanel, bPanel, kc, nr, &acc)
			} else {
				micro4x4(aPanel, bPanel, kc, &acc)
			}
			storeTile(alpha, beta, first, &acc, c, ci, cj, ib, jb, nr, diag)
		}
	}
}

// micro4x4 computes one 4×4 tile over kc rank-1 updates. The k loop is
// unrolled 4×: the accumulators stay in registers across the unrolled body,
// and the per-step slice expressions collapse the bounds checks to one per
// operand per step. The per-accumulator addition order is identical to the
// rolled loop (ascending p), so results are bit-identical to it.
//
//adsala:zeroalloc
func micro4x4[T float32 | float64](aPanel, bPanel []T, kc int, acc *[maxTile]T) {
	var c00, c01, c02, c03 T
	var c10, c11, c12, c13 T
	var c20, c21, c22, c23 T
	var c30, c31, c32, c33 T
	p := 0
	for ; p+3 < kc; p += 4 {
		a := aPanel[p*4 : p*4+16]
		b := bPanel[p*4 : p*4+16]
		{
			a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
			b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[4], a[5], a[6], a[7]
			b0, b1, b2, b3 := b[4], b[5], b[6], b[7]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[8], a[9], a[10], a[11]
			b0, b1, b2, b3 := b[8], b[9], b[10], b[11]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
		{
			a0, a1, a2, a3 := a[12], a[13], a[14], a[15]
			b0, b1, b2, b3 := b[12], b[13], b[14], b[15]
			c00 += a0 * b0
			c01 += a0 * b1
			c02 += a0 * b2
			c03 += a0 * b3
			c10 += a1 * b0
			c11 += a1 * b1
			c12 += a1 * b2
			c13 += a1 * b3
			c20 += a2 * b0
			c21 += a2 * b1
			c22 += a2 * b2
			c23 += a2 * b3
			c30 += a3 * b0
			c31 += a3 * b1
			c32 += a3 * b2
			c33 += a3 * b3
		}
	}
	for ; p < kc; p++ {
		a := aPanel[p*4 : p*4+4]
		b := bPanel[p*4 : p*4+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
	acc[8], acc[9], acc[10], acc[11] = c20, c21, c22, c23
	acc[12], acc[13], acc[14], acc[15] = c30, c31, c32, c33
}

// microVec computes one vector tile (6×nr, row-major acc) over kc rank-1
// updates: the assembly tile storing into the stack block, unscaled.
//
//adsala:zeroalloc
func microVec[T float32 | float64](aPanel, bPanel []T, kc, nr int, acc *[maxTile]T) {
	tileVec(aPanel, bPanel, kc, nr, acc[:], nr, 1, 0, storeSet)
}

// tileVec computes one vector tile over kc rank-1 updates in assembly and
// stores it, by mode, as the 6×nr block at c[0] with row stride ldc. nr is
// the width of one of T's vector tiles (isVecNR) and picks it; any other
// value runs the YMM tile at its own width, so the slice expressions below
// always cover what the assembly touches. They are the bounds check: the
// assembly reads exactly the kc·6 and kc·nr panel elements they cover and
// touches c only inside that block. The pointer type switch picks the
// precision without boxing anything.
//
//adsala:zeroalloc
func tileVec[T float32 | float64](aPanel, bPanel []T, kc, nr int, c []T, ldc int, alpha, beta T, mode int) {
	zmm := nr == zmmNR[T]()
	if !zmm {
		nr = ymmNR[T]()
	}
	a, b := aPanel[:kc*vecMR], bPanel[:kc*nr]
	c = c[:(vecMR-1)*ldc+nr]
	switch c := any(&c[0]).(type) {
	case *float32:
		a, b := any(&a[0]).(*float32), any(&b[0]).(*float32)
		if zmm {
			sgemmTile6x32(a, b, kc, c, ldc, float32(alpha), float32(beta), mode)
		} else {
			sgemmTile6x16(a, b, kc, c, ldc, float32(alpha), float32(beta), mode)
		}
	case *float64:
		a, b := any(&a[0]).(*float64), any(&b[0]).(*float64)
		if zmm {
			dgemmTile6x16(a, b, kc, c, ldc, float64(alpha), float64(beta), mode)
		} else {
			dgemmTile6x8(a, b, kc, c, ldc, float64(alpha), float64(beta), mode)
		}
	}
}

// storeTile writes an accumulated edge tile into C with alpha/beta handling,
// clipping to the ib×jb valid region. (Full interior vector tiles never get
// here: the assembly stores them from its registers with this arithmetic, see
// storeSet.) nr is the accumulator row stride. Row i keeps its first diag+i+1
// columns: with diag = ci−cj that is the j ≤ i mask of the lower triangle (it
// cuts only diagonal-straddling tiles; a tile fully below the diagonal has
// diag+1 ≥ jb), and any diag ≥ jb−1 cuts nothing. One min per row instead of
// a branch on a mask flag: the flag cost a measurable 4 % of a 64³ SGEMM.
func storeTile[T float32 | float64](alpha, beta T, first bool, acc *[maxTile]T, c mat.Dense[T], ci, cj, ib, jb, nr, diag int) {
	for i := 0; i < ib; i++ {
		jbRow := min(jb, diag+i+1)
		if jbRow <= 0 {
			continue
		}
		row := c.Data[(ci+i)*c.Stride+cj : (ci+i)*c.Stride+cj+jbRow]
		av := acc[i*nr : i*nr+jbRow]
		switch {
		case first:
			storeFirst(alpha, beta, row, av)
		case alpha == 1:
			for j, v := range av {
				row[j] += v
			}
		default:
			for j, v := range av {
				row[j] += alpha * v
			}
		}
	}
}

// storeFirst stores the sums av of a tile's first KC chunk into row, a row of
// C: alpha·v (v itself when alpha is 1) where beta is 0, else beta·c + alpha·v.
// storeTile and the Go small path (goPass) store with it, and the vector
// tile's storeSet and storeScale compute the same, NaN payloads included.
func storeFirst[T float32 | float64](alpha, beta T, row, av []T) {
	switch {
	case beta != 0:
		for j, v := range av {
			row[j] = beta*row[j] + alpha*v
		}
	case alpha == 1:
		copy(row, av)
	default:
		for j, v := range av {
			row[j] = alpha * v
		}
	}
}
