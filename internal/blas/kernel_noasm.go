//go:build !amd64

package blas

import "unsafe"

// Architectures without an assembly tile: the probes say no, DefaultParams
// resolves to the Go 4×4 tile and Validate rejects the vector tiles, so the
// kernels below are never reached; the team's spin hint is a no-op.

func cpuHasVectorTile() bool { return false }

func cpuHasZMM() bool { return false }

// spinHint has no portable instruction behind it: the atomic re-load in the
// loop around it (spinWait in team.go) is the whole wait.
func spinHint() {}

const noVec = "blas: no vector kernels on this architecture"

func sgemmTile6x16(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int) {
	panic(noVec)
}

func dgemmTile6x8(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int) {
	panic(noVec)
}

func sgemmTile6x32(a, b *float32, kc int, c *float32, ldc int, alpha, beta float32, mode int) {
	panic(noVec)
}

func dgemmTile6x16(a, b *float64, kc int, c *float64, ldc int, alpha, beta float64, mode int) {
	panic(noVec)
}

func stranspose(dst *float32, ldd int, src *float32, lds, m, n int) { panic(noVec) }

func dtranspose(dst *float64, ldd int, src *float64, lds, m, n int) { panic(noVec) }

func spackA6(dst, src *float32, lds, n int) { panic(noVec) }

func dpackA6(dst, src *float64, lds, n int) { panic(noVec) }

func copyRows64(dst, src unsafe.Pointer, ldsBytes, rows int) { panic(noVec) }

func copyRows128(dst, src unsafe.Pointer, ldsBytes, rows int) { panic(noVec) }

func ssmall(x *float32, xi, xp int, y *float32, yp, yj int, scr, c *float32, ldc, m, n, k, lower, mode int, alpha, beta float32) {
	panic(noVec)
}

func dsmall(x *float64, xi, xp int, y *float64, yp, yj int, scr, c *float64, ldc, m, n, k, lower, mode int, alpha, beta float64) {
	panic(noVec)
}
