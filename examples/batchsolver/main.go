// Batchsolver: a blocked iterative solver issuing the same GEMM shape in a
// loop — the workload pattern §III-C's prediction cache is built for. This
// example runs a block power-iteration (repeated C = A·B with fixed shapes)
// through the ADSALA front end and reports cache behaviour and the overhead
// actually paid per call.
//
//	go run ./examples/batchsolver
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	adsala "repro"
)

func main() {
	log.SetFlags(0)
	fmt.Println("== block power iteration through ADSALA (trained for Setonix) ==")
	lib, _, err := adsala.Train(adsala.TrainOptions{
		Platform: "Setonix", Shapes: 120, Quick: true, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := lib.BLAS()

	// Block power iteration: V <- normalise(A·V), A is n×n, V is n×b.
	const n, b, iters = 300, 8, 25
	rng := rand.New(rand.NewSource(11))
	a := adsala.NewMatrixF64(n, n)
	v := adsala.NewMatrixF64(n, b)
	w := adsala.NewMatrixF64(n, b)
	a.FillRandom(rng)
	// Symmetrise A so the iteration converges to real eigenvectors.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := (a.At(i, j) + a.At(j, i)) / 2
			a.Set(i, j, s)
			a.Set(j, i, s)
		}
	}
	v.FillRandom(rng)

	start := time.Now()
	for it := 0; it < iters; it++ {
		if err := g.DGEMM(false, false, 1, a, v, 0, w); err != nil {
			log.Fatal(err)
		}
		// Column-normalise W into V.
		for j := 0; j < b; j++ {
			var norm float64
			for i := 0; i < n; i++ {
				norm += w.At(i, j) * w.At(i, j)
			}
			norm = math.Sqrt(norm)
			if norm == 0 {
				norm = 1
			}
			for i := 0; i < n; i++ {
				v.Set(i, j, w.At(i, j)/norm)
			}
		}
	}
	elapsed := time.Since(start)

	// Rayleigh quotient of the leading block column as a convergence check.
	if err := g.DGEMM(false, false, 1, a, v, 0, w); err != nil {
		log.Fatal(err)
	}
	var rayleigh float64
	for i := 0; i < n; i++ {
		rayleigh += v.At(i, 0) * w.At(i, 0)
	}

	hits, misses := g.CacheStats()
	fmt.Printf("%d iterations of V <- A·V (%dx%d times %dx%d) in %v\n", iters, n, n, n, b, elapsed)
	fmt.Printf("leading eigenvalue estimate: %.4f\n", rayleigh)
	fmt.Printf("model-selected threads for the solver GEMM: %d\n", g.LastChoice(adsala.OpGEMM, n, n, b))
	fmt.Printf("prediction cache: %d hits / %d misses — the model ran %d time(s) for %d GEMMs\n",
		hits, misses, misses, hits+misses)
	fmt.Printf("amortised selection overhead: %.2f us per GEMM (single eval %.2f us)\n",
		lib.EvalLatency()*1e6*float64(misses)/float64(hits+misses), lib.EvalLatency()*1e6)
}
