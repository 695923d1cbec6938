package blas

import (
	"unsafe"

	"repro/internal/mat"
)

// Panel packing. The packed layouts are unchanged from the original kernel —
// packA produces MR-row panels stored p-major, packB produces NR-column
// panels stored p-major — and the copy loops are specialised per transpose
// case so every element moves through a contiguous source-row slice instead
// of a per-element opAt call (bounds-checked, branchy, two multiplies per
// element). Packing is pure data movement, so this is the part of the
// paper's Table VII cost breakdown labelled "data copy".
//
// Two of the four cases turn source rows into panel columns (packA
// untransposed, packBRange transposed). For the vector tile's full panels
// they run as in-register block transposes (transposeVec, packA6Vec: the
// assembly next to the tile, behind the same useVec probe) over the whole
// blocks of kc; the Go scatter loops below them are the reference, and what
// still packs the Go tile's panels, ragged last panels and the kc mod block
// tail. The other two cases are row copies.

// transposeVec writes the transpose of the m×n block at src[0] (row stride
// lds) to the n×m block at dst[0] (row stride ldd) in assembly. m and n are
// positive multiples of vecBlock; the index expressions are the bounds check,
// the assembly touches nothing outside the two blocks.
func transposeVec[T float32 | float64](dst []T, ldd int, src []T, lds, m, n int) {
	_, _ = dst[(n-1)*ldd+m-1], src[(m-1)*lds+n-1]
	switch d := any(&dst[0]).(type) {
	case *float32:
		stranspose(d, ldd, any(&src[0]).(*float32), lds, m, n)
	case *float64:
		dtranspose(d, ldd, any(&src[0]).(*float64), lds, m, n)
	}
}

// packA6Vec packs the vector tile's A panel in assembly: panel[p·6+i] =
// src[i·lds+p] for the six rows at src[0] and p < n, n a positive multiple of
// vecBlock. It writes exactly panel[:n·6].
func packA6Vec[T float32 | float64](panel, src []T, lds, n int) {
	_, _ = panel[n*vecMR-1], src[(vecMR-1)*lds+n-1]
	switch d := any(&panel[0]).(type) {
	case *float32:
		spackA6(d, any(&src[0]).(*float32), lds, n)
	case *float64:
		dpackA6(d, any(&src[0]).(*float64), lds, n)
	}
}

// copyRowsVec copies the n rows of vecNR elements at src[0], lds apart, back
// to back into panel in assembly: a full row of the vector tile's B panel is
// 64 bytes in either precision, two registers, where copy is a call into the
// runtime per row. n is positive; it writes exactly panel[:n·vecNR].
func copyRowsVec[T float32 | float64](panel, src []T, lds, n int) {
	nr := vecNR[T]()
	_, _ = panel[n*nr-1], src[(n-1)*lds+nr-1]
	copyRows64(unsafe.Pointer(&panel[0]), unsafe.Pointer(&src[0]), lds*int(unsafe.Sizeof(src[0])), n)
}

// packA copies the mc×kc block of op(A) starting at (ic, pc) into buf in
// MR-row panel order: panel 0 holds rows ic..ic+MR-1 stored p-major, padded
// with zeros when mc is not a multiple of MR. This layout lets the
// micro-kernel stream A with unit stride.
func packA[T float32 | float64](a mat.Dense[T], trans bool, ic, pc, mc, kc int, buf []T, mr int) {
	for i0 := 0; i0 < mc; i0 += mr {
		ib := min(mr, mc-i0)
		panel := buf[(i0/mr)*kc*mr : (i0/mr)*kc*mr+kc*mr]
		if trans {
			// op(A)(i, p) = A(p, i): source rows run along the panel's i
			// axis, so each p step is one contiguous copy of ib elements.
			for p := 0; p < kc; p++ {
				src := a.Data[(pc+p)*a.Stride+ic+i0 : (pc+p)*a.Stride+ic+i0+ib]
				dst := panel[p*mr : p*mr+mr]
				copy(dst, src)
				for i := ib; i < mr; i++ {
					dst[i] = 0
				}
			}
			continue
		}
		// op(A)(i, p) = A(i, p): source rows run along the panel's p axis. A
		// full panel of the vector tile is transposed in registers up to the
		// last whole block of p; from p0 on, read each row contiguously and
		// scatter with stride mr.
		p0 := 0
		if useVec && mr == vecMR && ib == mr {
			if p0 = kc &^ (vecBlock[T]() - 1); p0 > 0 {
				packA6Vec(panel, a.Data[(ic+i0)*a.Stride+pc:], a.Stride, p0)
			}
		}
		for i := 0; i < ib; i++ {
			src := a.Data[(ic+i0+i)*a.Stride+pc+p0 : (ic+i0+i)*a.Stride+pc+kc]
			idx := p0*mr + i
			for _, v := range src {
				panel[idx] = v
				idx += mr
			}
		}
		for i := ib; i < mr; i++ {
			idx := i
			for p := 0; p < kc; p++ {
				panel[idx] = 0
				idx += mr
			}
		}
	}
}

// packBRange packs the NR-column panels [loPanel, hiPanel) of the kc×nc
// block of op(B) starting at (pc, jc) into packed, zero-padding the last
// panel to NR. Workers call it with disjoint panel ranges to split the
// packing phase across the team.
func packBRange[T float32 | float64](b mat.Dense[T], trans bool, pc, jc, kc, nc, loPanel, hiPanel int, packed []T, nr int) {
	for pn := loPanel; pn < hiPanel; pn++ {
		j0 := pn * nr
		nb := min(nr, nc-j0)
		panel := packed[pn*kc*nr : (pn+1)*kc*nr]
		if trans {
			// op(B)(p, j) = B(j, p): source rows run along the panel's p
			// axis. A full panel of the vector tile is the transpose of its
			// nr source rows, done in registers up to the last whole block
			// of p; from p0 on, read each row contiguously and scatter with
			// stride nr.
			p0 := 0
			if useVec && nr == vecNR[T]() && nb == nr {
				if p0 = kc &^ (vecBlock[T]() - 1); p0 > 0 {
					transposeVec(panel, nr, b.Data[(jc+j0)*b.Stride+pc:], b.Stride, nr, p0)
				}
			}
			for j := 0; j < nb; j++ {
				src := b.Data[(jc+j0+j)*b.Stride+pc+p0 : (jc+j0+j)*b.Stride+pc+kc]
				idx := p0*nr + j
				for _, v := range src {
					panel[idx] = v
					idx += nr
				}
			}
			for j := nb; j < nr; j++ {
				idx := j
				for p := 0; p < kc; p++ {
					panel[idx] = 0
					idx += nr
				}
			}
			continue
		}
		// op(B)(p, j) = B(p, j): each p step is one contiguous copy of nb
		// elements.
		if useVec && nr == vecNR[T]() && nb == nr {
			copyRowsVec(panel, b.Data[pc*b.Stride+jc+j0:], b.Stride, kc)
			continue
		}
		for p := 0; p < kc; p++ {
			src := b.Data[(pc+p)*b.Stride+jc+j0 : (pc+p)*b.Stride+jc+j0+nb]
			dst := panel[p*nr : p*nr+nr]
			copy(dst, src)
			for j := nb; j < nr; j++ {
				dst[j] = 0
			}
		}
	}
}
