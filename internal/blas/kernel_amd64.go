package blas

import "unsafe"

// The vector kernels, implemented in kernel_amd64.s. The Go wrappers next to
// their callers (tileVec in kernel.go, the …Vec functions in pack.go) check
// every length before the call: the assembly reads and writes exactly
// what is listed here.

// The register tile with its store. Reads kc·6 elements of a and kc·vecNR of
// b; writes six rows of vecNR elements at c, ldc elements apart, by mode:
// alpha·acc (storeSet, which never loads c), c + alpha·acc (storeAdd) or
// beta·c + alpha·acc (storeScale).

//go:noescape
func sgemmTile6x16(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int)

//go:noescape
func dgemmTile6x8(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int)

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

// The B panel of the vector tile from an untransposed source: rows 64-byte
// rows (one tile row in either precision), ldsBytes apart at src, copied back
// to back to dst.

//go:noescape
func copyRows64(dst, src unsafe.Pointer, ldsBytes, rows int)

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
