package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// BenchmarkSmallCrossover is the sweep behind smallShapeLimit: every shape
// runs through the no-packing path and the packed path, on a held Context,
// on each host the machine can be: with the vector tile switched off for the
// call, the Go pass ("go") and the packed Go tile at one thread
// ("gopacked") and at two ("gopacked2"); where the vector tile runs, its
// assembly ("vec") and the packed path with the default tile at one thread
// ("packed") and at two ("packed2"). A call under the gate runs one thread whatever was asked, so
// the limit is where the small path stops beating the packed path at any
// thread count; see small.go. The forced arms fail the benchmark on any
// error.
func BenchmarkSmallCrossover(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type shape struct{ m, k, n int }
	var shapes []shape
	for _, d := range []int{4, 6, 8, 9, 10, 11, 12, 14, 16, 20, 24, 32, 40} {
		shapes = append(shapes, shape{d, d, d})
	}
	shapes = append(shapes, shape{4, 64, 4}, shape{4, 256, 4}, shape{8, 16, 4}, shape{16, 4, 16}, shape{12, 16, 12},
		shape{32, 2, 32}, shape{64, 1, 64}, shape{2, 8, 128})
	paths := []struct {
		name    string
		limit   int
		vec     bool
		threads int
	}{{"go", forceSmall, false, 1}, {"gopacked", forcePacked, false, 1}, {"gopacked2", forcePacked, false, 2}, {"vec", forceSmall, true, 1}, {"packed", forcePacked, true, 1}, {"packed2", forcePacked, true, 2}}
	ctx := NewContext()
	defer ctx.Close()
	for _, sh := range shapes {
		a, bm, bt := randF32(sh.m, sh.k, rng), randF32(sh.k, sh.n, rng), randF32(sh.n, sh.k, rng)
		c := mat.NewF32(sh.m, sh.n)
		sq := mat.NewF32(sh.m, sh.m)
		a2 := randF32(sh.m, sh.k, rng)
		ops := []struct {
			name string
			run  func(threads int) error
		}{
			{"gemm_nn", func(threads int) error { return ctx.SGEMM(false, false, 1, a, bm, 0, c, threads) }},
			{"gemm_nt", func(threads int) error { return ctx.SGEMM(false, true, 1, a, bt, 0, c, threads) }},
			{"syrk", func(threads int) error { return ctx.SSYRK(false, 1, a, 0, sq, threads) }},
			{"syr2k", func(threads int) error { return ctx.SSYR2K(false, 1, a, a2, 0, sq, threads) }},
		}
		for _, op := range ops {
			if op.name != "gemm_nn" && op.name != "gemm_nt" && sh.m != sh.n {
				continue
			}
			for _, p := range paths {
				if p.vec && !useVec {
					continue // no vector tile on this CPU
				}
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", op.name, sh.m, sh.k, sh.n, p.name), func(b *testing.B) {
					oldLimit, oldVec, oldZMM := smallShapeLimit, useVec, useZMM
					smallShapeLimit, useVec, useZMM = limitsAll(p.limit), p.vec, p.vec && useZMM
					defer func() { smallShapeLimit, useVec, useZMM = oldLimit, oldVec, oldZMM }()
					for i := 0; i < b.N; i++ {
						if err := op.run(p.threads); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
