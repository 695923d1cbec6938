package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// BenchmarkSmallCrossover is the sweep behind smallShapeLimit: every shape
// runs once through the no-packing path and once through the packed path
// with the default tile, single-threaded on a held Context. The limit sits
// where the packed column starts to win; see small.go.
func BenchmarkSmallCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, d := range []int{4, 6, 8, 9, 10, 11, 12, 14, 16, 20, 24, 32, 40} {
		shapes = append(shapes, shape{d, d, d})
	}
	shapes = append(shapes, shape{4, 64, 4}, shape{4, 256, 4}, shape{8, 16, 4}, shape{32, 2, 32}, shape{64, 1, 64}, shape{2, 8, 128})
	paths := []struct {
		name  string
		limit int
	}{{"small", forceSmall}, {"packed", forcePacked}}
	ctx := NewContext()
	defer ctx.Close()
	for _, sh := range shapes {
		a, bm, bt := randF32(sh.m, sh.k, rng), randF32(sh.k, sh.n, rng), randF32(sh.n, sh.k, rng)
		c := mat.NewF32(sh.m, sh.n)
		sq := mat.NewF32(sh.m, sh.m)
		a2 := randF32(sh.m, sh.k, rng)
		ops := []struct {
			name string
			run  func() error
		}{
			{"gemm_nn", func() error { return ctx.SGEMM(false, false, 1, a, bm, 0, c, 1) }},
			{"gemm_nt", func() error { return ctx.SGEMM(false, true, 1, a, bt, 0, c, 1) }},
			{"syrk", func() error { return ctx.SSYRK(false, 1, a, 0, sq, 1) }},
			{"syr2k", func() error { return ctx.SSYR2K(false, 1, a, a2, 0, sq, 1) }},
		}
		for _, op := range ops {
			if op.name != "gemm_nn" && op.name != "gemm_nt" && sh.m != sh.n {
				continue
			}
			for _, p := range paths {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", op.name, sh.m, sh.k, sh.n, p.name), func(b *testing.B) {
					old := smallShapeLimit
					smallShapeLimit = p.limit
					defer func() { smallShapeLimit = old }()
					for i := 0; i < b.N; i++ {
						if err := op.run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
