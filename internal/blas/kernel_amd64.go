package blas

import "unsafe"

// The vector kernels, implemented in kernel_amd64.s. The Go wrappers next to
// their callers (tileVec in kernel.go, the …Vec functions in pack.go,
// smallCall in small.go) check every length before the call: the assembly
// reads and writes exactly what is listed here.

// The register tiles with their store, YMM (6×16, 6×8) and ZMM (6×32,
// 6×16). Each reads kc·6 elements of a and kc·NR of b; writes six rows of NR
// elements at c, ldc elements apart, by mode: alpha·acc (storeSet, which never
// loads c), c + alpha·acc (storeAdd) or beta·c + alpha·acc (storeScale).

//go:noescape
func sgemmTile6x16(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int)

//go:noescape
func dgemmTile6x8(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int)

//go:noescape
func sgemmTile6x32(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int)

//go:noescape
func dgemmTile6x16(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int)

// The block transpose: dst(j, i) = src(i, j) for i < m, j < n, rows of src
// lds elements apart and rows of dst ldd. m and n are multiples of the
// precision's block (8 in float32, 4 in float64).

//go:noescape
func stranspose(dst *float32, ldd int, src *float32, lds, m, n int)

//go:noescape
func dtranspose(dst *float64, ldd int, src *float64, lds, m, n int)

// The A panel of the vector tile: dst[p·6+i] = src[i·lds+p] for i < 6,
// p < n, n a multiple of the block. Writes exactly n·6 elements.

//go:noescape
func spackA6(dst, src *float32, lds, n int)

//go:noescape
func dpackA6(dst, src *float64, lds, n int)

// The B panel of a vector tile from an untransposed source: rows rows of one
// tile row each (64 bytes for the YMM tile, 128 for the ZMM one, in either
// precision), ldsBytes apart at src, copied back to back to dst.

//go:noescape
func copyRows64(dst, src unsafe.Pointer, ldsBytes, rows int)

//go:noescape
func copyRows128(dst, src unsafe.Pointer, ldsBytes, rows int)

// The small path in one call per pass (smallCall in small.go is their Go
// side), on YMM registers with the packed tile's arithmetic: C(i, j) ←
// alpha ⊗ Σp x(i, p)·y(p, j), one fused multiply-add per p from +0, stored by
// mode (storeSet or storeScale, with beta). Strides are in elements:
// x(i, p) = x[i·xi+p·xp] is broadcast, y(p, j) = y[p·yp+j·yj] is the lane
// operand. When yj ≠ 1, y is the transpose of a row-major matrix (yp = 1)
// and is first transposed into scr: k·n elements, each rounded up to whole
// vectors. Under lowerOnly and lowerMirror only the lower triangle is
// needed: a row i computes up to the vector that holds column i, and
// lowerMirror then mirrors the strict lower triangle into the upper one (over
// whatever those vectors stored there).

//go:noescape
func ssmall(x *float32, xi, xp int, y *float32, yp, yj int, scr, c *float32, ldc, m, n, k, lower, mode int, alpha, beta float32)

//go:noescape
func dsmall(x *float64, xi, xp int, y *float64, yp, yj int, scr, c *float64, ldc, m, n, k, lower, mode int, alpha, beta float64)

// spinHint is one PAUSE: it tells the core that the loop around it is a
// spin-wait (see spinWait in team.go), which saves power, frees the sibling
// hyper-thread and avoids the memory-order mis-speculation on loop exit.
func spinHint()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuHasVectorTile reports whether the kernels above may run: the CPU has
// AVX2 and FMA, and the OS saves the YMM state across context switches.
func cpuHasVectorTile() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuHasZMM reports whether the ZMM tiles and row copy may run as well: on
// top of cpuHasVectorTile, the CPU has AVX512F (CPUID.7.0:EBX[16]) and the OS
// saves the opmask registers and all 512 bits of the 32 ZMM registers (XCR0
// bits 5–7: opmask, ZMM_Hi256, Hi16_ZMM).
func cpuHasZMM() bool {
	if !cpuHasVectorTile() {
		return false
	}
	const opmask, zmmHi256, hi16ZMM = 1 << 5, 1 << 6, 1 << 7
	if xcr0, _ := xgetbv(); xcr0&(opmask|zmmHi256|hi16ZMM) != opmask|zmmHi256|hi16ZMM {
		return false
	}
	const avx512f = 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0
}
