package adsala

// The benchmark harness: one testing.B benchmark per paper table and figure
// (each regenerates the artefact at quick scale through the experiments
// registry), plus micro-benchmarks for the substrate layers — the GEMM
// kernel, the model evaluation latencies behind the t_eval column of Tables
// III/IV, the §III-C prediction cache, and the blocking-parameter ablation.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mat"
	"repro/internal/ml"
	"repro/internal/ops"
	"repro/internal/preprocess"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/simtime"
)

var (
	labOnce  sync.Once
	benchLab *experiments.Lab
)

func lab() *experiments.Lab {
	labOnce.Do(func() { benchLab = experiments.NewLab(experiments.QuickScale()) })
	return benchLab
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, io.Discard, lab()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per paper artefact -----------------------------------

func BenchmarkFig1OptimalThreadHistogram(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig4YeoJohnsonSkewness(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig7AffinityComparison(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8SmallDimHistogram(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9OptimalThreadHeatmaps(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkTable3ModelComparisonSetonix(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4ModelComparisonGadi(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkTable5SpeedupStatsHT(b *testing.B)         { benchExperiment(b, "table5") }
func BenchmarkTable6SpeedupStatsNoHT(b *testing.B)       { benchExperiment(b, "table6") }
func BenchmarkFig10SpeedupHeatmaps(b *testing.B)         { benchExperiment(b, "fig10") }
func BenchmarkFig11GFLOPSBucketsSetonix(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12GFLOPSBucketsGadi(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13PredesignedSetonix(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkFig14PredesignedGadi(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkTable7ProfileBreakdown(b *testing.B)       { benchExperiment(b, "table7") }

// --- ablation benches (DESIGN.md §5) -------------------------------------

func BenchmarkAblationPreproc(b *testing.B)  { benchExperiment(b, "ablation-preproc") }
func BenchmarkAblationFeatures(b *testing.B) { benchExperiment(b, "ablation-features") }
func BenchmarkAblationTarget(b *testing.B)   { benchExperiment(b, "ablation-target") }

// --- GEMM substrate -------------------------------------------------------

func benchSGEMM(b *testing.B, m, k, n, threads int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	A := mat.NewF32(m, k)
	B := mat.NewF32(k, n)
	C := mat.NewF32(m, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	flops := 2 * int64(m) * int64(k) * int64(n)
	b.SetBytes(flops) // report FLOP throughput as MB/s-equivalent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blas.SGEMM(false, false, 1, A, B, 0, C, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSGEMM64Serial(b *testing.B)     { benchSGEMM(b, 64, 64, 64, 1) }
func BenchmarkSGEMM256Serial(b *testing.B)    { benchSGEMM(b, 256, 256, 256, 1) }
func BenchmarkSGEMM256Parallel4(b *testing.B) { benchSGEMM(b, 256, 256, 256, 4) }
func BenchmarkSGEMMSkinny(b *testing.B)       { benchSGEMM(b, 64, 2048, 64, 1) }

// BenchmarkSGEMMTiny covers the no-packing small-shape fast path.
func BenchmarkSGEMMTiny(b *testing.B) { benchSGEMM(b, 32, 32, 32, 1) }

// benchSSYRK measures the packed SYRK (SetBytes carries n(n+1)k, the
// standard SYRK FLOP count, so the MB/s column reads as FLOP throughput).
func benchSSYRK(b *testing.B, n, k, threads int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	A := mat.NewF32(n, k)
	C := mat.NewF32(n, n)
	A.FillRandom(rng)
	b.SetBytes(int64(n) * int64(n+1) * int64(k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blas.SSYRK(false, 1, A, 0, C, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSYRK64Serial(b *testing.B)     { benchSSYRK(b, 64, 64, 1) }
func BenchmarkSSYRK256Serial(b *testing.B)    { benchSSYRK(b, 256, 256, 1) }
func BenchmarkSSYRK256Parallel4(b *testing.B) { benchSSYRK(b, 256, 256, 4) }
func BenchmarkSSYRKWideK(b *testing.B)        { benchSSYRK(b, 64, 2048, 1) }

// benchSSYR2K measures the packed SYR2K (SetBytes carries 2·n(n+1)k, the
// standard SYR2K FLOP count, so the MB/s column reads as FLOP throughput).
func benchSSYR2K(b *testing.B, n, k, threads int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	A := mat.NewF32(n, k)
	B := mat.NewF32(n, k)
	C := mat.NewF32(n, n)
	A.FillRandom(rng)
	B.FillRandom(rng)
	b.SetBytes(2 * int64(n) * int64(n+1) * int64(k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blas.SSYR2K(false, 1, A, B, 0, C, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSYR2K64Serial(b *testing.B)     { benchSSYR2K(b, 64, 64, 1) }
func BenchmarkSSYR2K256Serial(b *testing.B)    { benchSSYR2K(b, 256, 256, 1) }
func BenchmarkSSYR2K256Parallel4(b *testing.B) { benchSSYR2K(b, 256, 256, 4) }

// BenchmarkSSYRKNaive256 is the pre-packed per-element reference the
// ISSUE-3 acceptance criterion measures against (packed ≥ 3× at n=k=256).
func BenchmarkSSYRKNaive256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	A := mat.NewF32(256, 256)
	C := mat.NewF32(256, 256)
	A.FillRandom(rng)
	b.SetBytes(256 * 257 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.NaiveSSYRK(false, 1, A, 0, C)
	}
}

// BenchmarkSGEMMContext measures the explicit-Context path (the steady-state
// zero-allocation contract is also enforced by a test in internal/blas).
func BenchmarkSGEMMContext(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	A := mat.NewF32(256, 256)
	B := mat.NewF32(256, 256)
	C := mat.NewF32(256, 256)
	A.FillRandom(rng)
	B.FillRandom(rng)
	ctx := blas.NewContext()
	defer ctx.Close()
	b.SetBytes(2 * 256 * 256 * 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.SGEMM(false, false, 1, A, B, 0, C, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTeamDispatch is the price of a parallel region: a 48³ SGEMM
// (about 4 µs of kernel) on an owned context, at one thread — no team — and
// at two, where every call is a dispatch, two barriers per blocking
// iteration and a join. The difference in ns/call is what the team costs a
// call too small to gain from it.
func BenchmarkTeamDispatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	A, B, C := mat.NewF32(48, 48), mat.NewF32(48, 48), mat.NewF32(48, 48)
	A.FillRandom(rng)
	B.FillRandom(rng)
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			ctx := blas.NewContext()
			defer ctx.Close()
			for i := 0; i < b.N; i++ {
				if err := ctx.SGEMM(false, false, 1, A, B, 0, C, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelConcurrentCallers is the oversubscription row: 1, 2 and 4
// goroutines, each with its own context and matrices, each running 256³
// SGEMMs at threads = GOMAXPROCS, so with c callers c·GOMAXPROCS parts
// share GOMAXPROCS processors and every wait in the team has to give way.
// b.N calls are split between the callers; the metric is their aggregate
// GFLOP/s.
func BenchmarkKernelConcurrentCallers(b *testing.B) {
	const n = 256
	threads := runtime.GOMAXPROCS(0)
	for _, callers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			type caller struct {
				ctx     *blas.Context
				a, b, c *mat.F32
			}
			cs := make([]caller, callers)
			for i := range cs {
				cs[i] = caller{blas.NewContext(), mat.NewF32(n, n), mat.NewF32(n, n), mat.NewF32(n, n)}
				cs[i].a.FillRandom(rng)
				cs[i].b.FillRandom(rng)
				defer cs[i].ctx.Close()
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := range cs {
				calls := b.N / callers
				if i < b.N%callers {
					calls++
				}
				wg.Add(1)
				go func(c caller, calls int) {
					defer wg.Done()
					for ; calls > 0; calls-- {
						if err := c.ctx.SGEMM(false, false, 1, c.a, c.b, 0, c.c, threads); err != nil {
							b.Error(err)
							return
						}
					}
				}(cs[i], calls)
			}
			wg.Wait()
			b.ReportMetric(2*n*n*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkMicroTiles compares the register micro-tiles through the same
// blocked driver: the Go 4×4 fallback and, where the CPU runs it, the
// vector tile that is the default (see internal/blas/kernel.go).
func BenchmarkMicroTiles(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	A := mat.NewF32(256, 256)
	B := mat.NewF32(256, 256)
	C := mat.NewF32(256, 256)
	A.FillRandom(rng)
	B.FillRandom(rng)
	def := blas.DefaultParams[float32]()
	tiles := [][2]int{{4, 4}}
	if def.MR != 4 {
		tiles = append(tiles, [2]int{def.MR, def.NR})
	}
	for _, tile := range tiles {
		p := def
		p.MR, p.NR = tile[0], tile[1]
		b.Run(fmt.Sprintf("%dx%d", tile[0], tile[1]), func(b *testing.B) {
			ctx := &blas.Context{Params: p}
			defer ctx.Close()
			b.SetBytes(2 * 256 * 256 * 256)
			for i := 0; i < b.N; i++ {
				if err := ctx.SGEMM(false, false, 1, A, B, 0, C, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBlockingParams ablates the cache-blocking parameters of the GEMM
// substrate (DESIGN.md §5): default vs small blocks.
func BenchmarkBlockingParams(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	A := mat.NewF32(256, 256)
	B := mat.NewF32(256, 256)
	C := mat.NewF32(256, 256)
	A.FillRandom(rng)
	B.FillRandom(rng)
	def := blas.DefaultParams[float32]()
	for _, cfg := range []struct {
		name string
		p    blas.Params
	}{
		{"default", def},
		{"tiny-blocks", blas.Params{MC: 8 * def.MR, KC: 32, NC: 4 * def.NR, MR: def.MR, NR: def.NR}},
		{"deep-k", blas.Params{MC: 16 * def.MR, KC: 512, NC: 64 * def.NR, MR: def.MR, NR: def.NR}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			ctx := &blas.Context{Params: cfg.p}
			defer ctx.Close()
			for i := 0; i < b.N; i++ {
				if err := ctx.SGEMM(false, false, 1, A, B, 0, C, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- model evaluation latency (the t_eval of Tables III/IV) ---------------

func BenchmarkModelEvalLatency(b *testing.B) {
	p, err := experiments.PlatformByName("Gadi")
	if err != nil {
		b.Fatal(err)
	}
	res, err := lab().Train(p, 500, true)
	if err != nil {
		b.Fatal(err)
	}
	lib := res.Library
	b.Run("full-selection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lib.OptimalThreadsOp(OpGEMM, 512, 512, 512)
		}
	})
	b.Run("single-predict", func(b *testing.B) {
		gemm := lib.ModelFor(ops.GEMM)
		row := gemm.Pipeline.Transform(featRow(512, 512, 512, 16, lib))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gemm.Model.Predict(row)
		}
	})
}

// BenchmarkRankOp is the cold-path ranking cost per model kind and op: one
// RankOpInto over the 16 Gadi candidates (and, in the /feasible2 rows, over
// the two a 2-processor host ranks) through a reused scratch, on the
// benchmark artefact's training set-up (Gadi, quick, 120 shapes, seed 11)
// with the selection forced to one kind. The boosters rank through their
// batch method and everything else through the per-row loop, so a model or
// pipeline change that silently falls off the batch path shows up here as a
// several-fold row (and a non-zero allocs/op as a broken zero-alloc pin).
func BenchmarkRankOp(b *testing.B) {
	opts := TrainOptions{Platform: "Gadi", Quick: true, Shapes: 120, Seed: 11, Ops: []Op{OpSYRK, OpSYR2K}}
	cfg, err := buildConfig(opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, spec := range core.DefaultModels(opts.Seed, true) {
		cfg.Models = []core.ModelSpec{spec}
		res, err := core.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// The artefact's 16 candidates, then the two a 2-processor host can
		// run: the feasible view the benchmark's cold path ranks.
		for _, row := range []struct {
			suffix string
			lib    *core.Library
		}{{"", res.Library}, {"/feasible2", res.Library.Feasible(2)}} {
			lib, scratch := row.lib, row.lib.NewScratch()
			for _, op := range lib.TrainedOps() {
				b.Run(spec.Kind+"/"+op.String()+row.suffix, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						// A never-repeating walk of the small domain, as cold_small.
						lib.RankOpInto(op, 4+i%61, 4+(i/61)%61, 4+(i/3721)%61, scratch, nil)
					}
				})
			}
		}
	}
}

func featRow(m, k, n, t int, lib *core.Library) []float64 {
	// The library may restrict columns; PredictSeconds handles that, so use
	// the pipeline width directly via a probe call.
	_ = lib.PredictOpSeconds(OpGEMM, m, k, n, t)
	return make([]float64, len(lib.ModelFor(ops.GEMM).Pipeline.InputCols))
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkSimulatorBreakdown(b *testing.B) {
	sim := simtime.New(simtime.DefaultConfig(machine.Setonix()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Breakdown(1024, 1024, 1024, 64)
	}
}

func BenchmarkYeoJohnsonFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.FitYeoJohnson(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHaltonSampling(b *testing.B) {
	s, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkModelFitXGBQuick(b *testing.B) {
	p, _ := experiments.PlatformByName("Gadi")
	res, err := lab().Train(p, 500, true)
	if err != nil {
		b.Fatal(err)
	}
	// Refit the selected model family on the gathered data each iteration.
	data := res.Data
	recs := core.Records(data)
	X := make([][]float64, len(recs))
	y := make([]float64, len(recs))
	for i, r := range recs {
		X[i] = []float64{float64(r.Shape.M), float64(r.Shape.K), float64(r.Shape.N), float64(r.Threads)}
		y[i] = r.Seconds
	}
	specs := core.DefaultModels(1, true)
	spec, _ := core.SpecByKind(specs, "xgb")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model := spec.Grid[0].Factory()
		if err := model.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
	_ = ml.RMSE // keep ml imported for future metric benches
}

// BenchmarkGemmEndToEnd measures the full runtime path of Fig 3 — model
// prediction (served from the sharded decision cache) followed by kernel
// execution on a pooled context — and reports allocations: the steady state
// must allocate nothing per call.
func BenchmarkGemmEndToEnd(b *testing.B) {
	p, _ := experiments.PlatformByName("Gadi")
	res, err := lab().Train(p, 500, true)
	if err != nil {
		b.Fatal(err)
	}
	lib := newLibrary(res.Library)
	g := lib.BLAS()
	g.SetMaxLocalThreads(2)
	rng := rand.New(rand.NewSource(4))
	A := mat.NewF32(128, 128)
	B := mat.NewF32(128, 128)
	C := mat.NewF32(128, 128)
	A.FillRandom(rng)
	B.FillRandom(rng)
	if err := g.SGEMM(false, false, 1, A, B, 0, C); err != nil { // warm cache + pool
		b.Fatal(err)
	}
	b.SetBytes(2 * 128 * 128 * 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.SGEMM(false, false, 1, A, B, 0, C); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeHit is the facade's hit path: laps over tiny mixed-op
// calls (SGEMM, DGEMM, SSYRK and SSYR2K at a small-path and a packed shape,
// facadeCalls) with every decision a cache hit and nothing listening, so a
// call is the decision, the clamp and the kernel. The steady state must
// allocate nothing (CI's bench-smoke greps for 0 allocs/op).
func BenchmarkFacadeHit(b *testing.B) {
	lib, _, err := Train(TrainOptions{Platform: "Gadi", Quick: true, Shapes: 120, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	g := lib.BLAS()
	calls := facadeCalls()
	for _, c := range calls { // decide every shape, warm the pooled contexts
		if err := c.run(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := calls[i%len(calls)].run(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serving subsystem ----------------------------------------------------

// benchServeShapes returns deterministic mixed GEMM shapes for the
// concurrent prediction benchmarks.
func benchServeShapes(n int) []sampling.Shape {
	s, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 11)
	if err != nil {
		panic(err)
	}
	return s.Sample(n)
}

// BenchmarkConcurrentPrediction measures the sharded serve cache under
// concurrent mixed-shape traffic (8 goroutines, the multi-tenant scenario
// the serving subsystem targets).
func BenchmarkConcurrentPrediction(b *testing.B) {
	p, _ := experiments.PlatformByName("Gadi")
	res, err := lab().Train(p, 500, true)
	if err != nil {
		b.Fatal(err)
	}
	shapes := benchServeShapes(64)

	b.Run("sharded-cache", func(b *testing.B) {
		eng := serve.NewEngine(res.Library, serve.Options{CacheSize: 256, Shards: 16})
		ctx := context.Background()
		eng.PredictBatchOpCtx(ctx, OpGEMM, shapes, nil) // warm
		b.SetParallelism(8)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sh := shapes[i%len(shapes)]
				eng.PredictOpCtx(ctx, OpGEMM, sh.M, sh.K, sh.N)
				i++
			}
		})
	})
}

// BenchmarkBatchPredict measures the batch ranking path at two sizes.
func BenchmarkBatchPredict(b *testing.B) {
	p, _ := experiments.PlatformByName("Gadi")
	res, err := lab().Train(p, 500, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{16, 128} {
		shapes := benchServeShapes(size)
		b.Run(fmt.Sprintf("n%d", size), func(b *testing.B) {
			// A tiny single-shard cache, replaced by an empty one outside
			// the timer (a swap to the same library), keeps every
			// ranking a cache miss without measuring engine construction.
			eng := serve.NewEngine(res.Library, serve.Options{CacheSize: 1, Shards: 1})
			out := make([]int, len(shapes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng.SwapLibrary(res.Library)
				b.StartTimer()
				eng.PredictBatchOpCtx(context.Background(), OpGEMM, shapes, out)
			}
		})
	}
}

// BenchmarkServeCache isolates the sharded cache data structure itself.
func BenchmarkServeCache(b *testing.B) {
	shapes := benchServeShapes(256)
	b.Run("hit", func(b *testing.B) {
		c := serve.NewCache(1024, 16)
		for _, sh := range shapes {
			c.Put(serve.OpGEMM, sh.M, sh.K, sh.N, 8)
		}
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sh := shapes[i%len(shapes)]
				c.Get(serve.OpGEMM, sh.M, sh.K, sh.N)
				i++
			}
		})
	})
	b.Run("churn", func(b *testing.B) {
		c := serve.NewCache(128, 16) // smaller than the key set: constant eviction
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				sh := shapes[i%len(shapes)]
				c.Put(serve.OpGEMM, sh.M, sh.K, sh.N, 8)
				i++
			}
		})
	})
}
