package blas

// The vector micro-kernels, implemented in kernel_amd64.s. Each reads kc·6
// elements of a and kc·vecNR elements of b and writes the first 6·vecNR
// elements of acc, row-major; microVec checks the panel lengths before the
// call.

//go:noescape
func sgemmKernel6x16(a, b *float32, kc int, acc *[maxTile]float32)

//go:noescape
func dgemmKernel6x8(a, b *float64, kc int, acc *[maxTile]float64)

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
