// Quickstart: train an ADSALA library against the simulated Gadi node —
// with a per-op SYRK model alongside the GEMM one — look at the model
// comparison, ask it for thread counts, and run real BLAS-3 calls through
// the ML-driven front end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	adsala "repro"
)

func main() {
	log.SetFlags(0)

	// 1. Installation: gather timings on the (simulated) platform, train and
	// select the model. Quick mode keeps this to a few seconds.
	fmt.Println("== training ADSALA for the Gadi platform (2x 24-core Cascade Lake) ==")
	lib, report, err := adsala.Train(adsala.TrainOptions{
		Platform: "Gadi", Shapes: 120, Quick: true, Seed: 7,
		// Train a SYRK model of its own next to GEMM's: SYRK's triangular
		// cost profile (~half the FLOPs of a square GEMM) gets its own sweep
		// instead of borrowing the GEMM model with a ~2x mis-estimate.
		Ops: []adsala.Op{adsala.OpSYRK},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	fmt.Printf("trained ops: %v; selected model: %s, evaluation latency %.0f us\n\n",
		lib.TrainedOps(), lib.ModelKind(), lib.EvalLatency()*1e6)

	// 2. Ask the model for thread counts across very different shapes.
	fmt.Println("== model-selected thread counts (max on Gadi: 96) ==")
	shapes := [][3]int{
		{64, 64, 64},       // tiny: parallel overheads dominate
		{64, 2048, 64},     // the Table VII pathology: skinny K-panel
		{512, 512, 512},    // medium square
		{6000, 6000, 6000}, // large square: wants the whole machine
	}
	for _, s := range shapes {
		threads := lib.OptimalThreadsOp(adsala.OpGEMM, s[0], s[1], s[2])
		pred := lib.PredictRuntimeOp(adsala.OpGEMM, s[0], s[1], s[2], threads)
		fmt.Printf("  %5dx%5dx%5d -> %3d threads (predicted %8.1f us)\n",
			s[0], s[1], s[2], threads, pred*1e6)
	}

	// 3. Run actual BLAS-3 calls through the one generic front end: per op,
	// the bundle's model picks the thread count (clamped to this machine's
	// cores) and the built-in blocked kernels execute it. Every call shares
	// one decision cache.
	fmt.Println("\n== executing real BLAS-3 calls through lib.BLAS() ==")
	bl := lib.BLAS()
	rng := rand.New(rand.NewSource(1))
	m, k, n := 256, 384, 128
	a := adsala.NewMatrixF32(m, k)
	b := adsala.NewMatrixF32(k, n)
	c := adsala.NewMatrixF32(m, n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	if err := bl.SGEMM(false, false, 1, a, b, 0, c); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C = A(%dx%d) * B(%dx%d) done with %d threads; C[0,0] = %f\n",
		m, k, k, n, bl.LastChoice(adsala.OpGEMM, m, k, n), c.At(0, 0))

	cs := adsala.NewMatrixF32(m, m)
	if err := bl.SSYRK(false, 1, a, 0, cs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C = A*A^T (n=%d, k=%d) done with %d threads (SYRK model)\n",
		m, k, bl.LastChoice(adsala.OpSYRK, m, k, m))

	a2 := adsala.NewMatrixF32(m, k)
	a2.FillRandom(rng)
	c2 := adsala.NewMatrixF32(m, m)
	if err := bl.SSYR2K(false, 1, a, a2, 0, c2); err != nil {
		log.Fatal(err)
	}
	hits, misses := bl.CacheStats()
	fmt.Printf("C = A*B^T + B*A^T (n=%d, k=%d) done with %d threads (SYR2K)\n",
		m, k, bl.LastChoice(adsala.OpSYR2K, m, k, m))
	fmt.Printf("shared decision cache: %d hits, %d misses across all ops\n", hits, misses)
}
