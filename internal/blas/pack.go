package blas

import "repro/internal/mat"

// Panel packing. The packed layouts are unchanged from the original kernel —
// packA produces MR-row panels stored p-major, packB produces NR-column
// panels stored p-major — but the copy loops are specialised per transpose
// case so every element moves through a contiguous source-row slice instead
// of a per-element opAt call (bounds-checked, branchy, two multiplies per
// element). Packing is pure data movement, so this is the part of the
// paper's Table VII cost breakdown labelled "data copy".

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
		// op(A)(i, p) = A(i, p): source rows run along the panel's p axis;
		// read each row contiguously and scatter with stride mr.
		for i := 0; i < ib; i++ {
			src := a.Data[(ic+i0+i)*a.Stride+pc : (ic+i0+i)*a.Stride+pc+kc]
			idx := i
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
			// axis; read each row contiguously and scatter with stride nr.
			for j := 0; j < nb; j++ {
				src := b.Data[(jc+j0+j)*b.Stride+pc : (jc+j0+j)*b.Stride+pc+kc]
				idx := j
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
