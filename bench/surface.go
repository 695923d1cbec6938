package main

// The program surface the benchmark may call, pinned in one file. No other
// file of this package imports a repro package (surface_test.go checks it),
// so a later PR that shrinks the program's API knows exactly which forms the
// benchmark — which it may not edit — depends on. Only the op-taking,
// context-taking forms are used: no serve.Client method grid, no
// context-less or non-op twins, no package-level blas.*WithParams.

import (
	"context"
	"net/http"

	adsala "repro"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/trace"
)

type (
	library     = adsala.Library
	facade      = adsala.BLAS // Library.BLAS(): SGEMM, SSYRK, SSYR2K, LastChoice
	engine      = adsala.Engine
	opKind      = adsala.Op
	matrixF32   = adsala.MatrixF32
	matrixF64   = adsala.MatrixF64
	engineShape = sampling.Shape // element of PredictBatchOpCtx's batch
	kernelCtx   = blas.Context   // owned kernel context: SGEMM, DGEMM, SSYRK, SSYR2K
	rankScratch = core.Scratch
	coreLibrary = core.Library // RankOpInto, PredictOpSecondsInto, NewScratch, Candidates
	recorder    = trace.Recorder
	traceRecord = trace.Record
	monitor     = drift.Monitor
	histogram   = obs.Histogram
)

const (
	opGEMM  = adsala.OpGEMM
	opSYRK  = adsala.OpSYRK
	opSYR2K = adsala.OpSYR2K
)

var allOps = [...]opKind{opGEMM, opSYRK, opSYR2K}

// trainArtefact is the one system under test: a deterministic
// simulator-trained artefact, so decisions are identical run to run. shapes
// is 120 for a real run (the smoke pass of the tests uses fewer).
func trainArtefact(shapes int) (*library, error) {
	lib, _, err := adsala.Train(adsala.TrainOptions{
		Platform: "Gadi", Quick: true, Shapes: shapes, Seed: 11,
		Ops: []opKind{opSYRK, opSYR2K},
	})
	return lib, err
}

func loadArtefact(path string) (*library, error) { return adsala.Load(path) }

// sharedEngine is the engine every facade and the default server of the
// library share; privateEngine has the same geometry (the defaults written
// out) but its own cache and counters, for reference decisions and micro
// passes that must not disturb the workload's hit rate.
func sharedEngine(l *library) *engine { return l.Engine(adsala.ServeOptions{}) }
func privateEngine(l *library) *engine {
	return l.Engine(adsala.ServeOptions{CacheSize: cacheCapacity, Shards: 16})
}

// cacheCapacity is the decision cache's default entry count; the workloads
// size their working sets against it.
const cacheCapacity = 4096

// daemon is Library.NewServer with default limits on the shared engine,
// driven only through ServeHTTP (on a socket or a recorder).
func daemon(l *library) http.Handler { return l.NewServer(adsala.ServeOptions{}) }

func coreOf(e *engine) *coreLibrary { return e.Library() }

func predict(ctx context.Context, e *engine, op opKind, m, k, n int) int {
	threads, _ := e.PredictOpCtx(ctx, op, m, k, n)
	return threads
}

func predictBatch(ctx context.Context, e *engine, op opKind, shapes []engineShape, out []int) []int {
	out, _ = e.PredictBatchOpCtx(ctx, op, shapes, out)
	return out
}

func flopsOf(op opKind, m, k, n int) float64 { return op.Spec().Flops(m, k, n) }

func newMatrixF32(rows, cols int) *matrixF32 { return adsala.NewMatrixF32(rows, cols) }
func newMatrixF64(rows, cols int) *matrixF64 { return adsala.NewMatrixF64(rows, cols) }
func newKernelCtx() *kernelCtx               { return blas.NewContext() }

func naiveSGEMM(a, b, c *matrixF32)  { blas.NaiveSGEMM(false, false, 1, a, b, 0, c) }
func naiveSSYRK(a, c *matrixF32)     { blas.NaiveSSYRK(false, 1, a, 0, c) }
func naiveSSYR2K(a, b, c *matrixF32) { blas.NaiveSSYR2K(false, 1, a, b, 0, c) }

func featureColumns() int                                { return len(features.Columns()) }
func featureRowInto(m, k, n, threads int, dst []float64) { features.RowInto(m, k, n, threads, dst) }

func openRecorder(prefix string) (*recorder, error) { return trace.Open(prefix, trace.Options{}) }
func newMonitor() *monitor                          { return drift.NewMonitor(drift.Config{}) }
func newHistogram() *histogram                      { return obs.NewHistogram(1e-9) }
