//go:build !amd64

package blas

// Architectures without an assembly tile: the probe says no, DefaultParams
// resolves to the Go 4×4 tile and Validate rejects the vector tile, so the
// kernels below are never reached; the team's spin hint is a no-op.

func cpuHasVectorTile() bool { return false }

// spinHint has no portable instruction behind it: the atomic re-load in the
// loop around it (spinWait in team.go) is the whole wait.
func spinHint() {}

func sgemmKernel6x16(a, b *float32, kc int, acc *[maxTile]float32) {
	panic("blas: no vector micro-kernel on this architecture")
}

func dgemmKernel6x8(a, b *float64, kc int, acc *[maxTile]float64) {
	panic("blas: no vector micro-kernel on this architecture")
}
