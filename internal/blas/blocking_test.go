package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// benchBlocking runs a one-thread 256³ SGEMM per iteration through drive
// under the blocking prm.
func benchBlocking(b *testing.B, prm params) {
	rng := rand.New(rand.NewSource(2))
	a, bm, c := randF32(256, 256, rng), randF32(256, 256, rng), mat.NewF32(256, 256)
	ctx := NewContext()
	defer ctx.Close()
	b.SetBytes(2 * 256 * 256 * 256)
	for i := 0; i < b.N; i++ {
		if err := drive(ctx, opGemm, false, false, 1, *a, *bm, 0, *c, 1, prm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroTiles compares the register micro-tiles through the same
// blocked driver: the Go 4×4 tile and, where the CPU runs them, the vector
// tiles (see kernel.go).
func BenchmarkMicroTiles(b *testing.B) {
	for _, tile := range testTiles[float32]() {
		p := defaultParams[float32]()
		p.MR, p.NR = tile[0], tile[1]
		b.Run(fmt.Sprintf("%dx%d", tile[0], tile[1]), func(b *testing.B) { benchBlocking(b, p) })
	}
}

// BenchmarkBlockingParams ablates the cache-blocking parameters of the
// packed GEMM: the default against small blocks and a deep KC.
func BenchmarkBlockingParams(b *testing.B) {
	def := defaultParams[float32]()
	for _, cfg := range []struct {
		name string
		p    params
	}{
		{"default", def},
		{"tiny-blocks", params{MC: 8 * def.MR, KC: 32, NC: 4 * def.NR, MR: def.MR, NR: def.NR}},
		{"deep-k", params{MC: 16 * def.MR, KC: 512, NC: 64 * def.NR, MR: def.MR, NR: def.NR}},
	} {
		b.Run(cfg.name, func(b *testing.B) { benchBlocking(b, cfg.p) })
	}
}
