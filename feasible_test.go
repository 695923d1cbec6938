package adsala

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// atGOMAXPROCS runs the rest of the test or benchmark with the given
// processor count and restores the previous one at cleanup. No test of this
// package is parallel.
func atGOMAXPROCS(t testing.TB, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestEnginesRankTheFeasibleView pins the one-view rule: the shared engine
// behind BLAS(), a private Engine(opts) and the in-process server all rank
// the artefact's candidates that GOMAXPROCS can run, and their decision is
// the argmin of the artefact-wide predictions over that subset — while
// Candidates() and OptimalThreadsOp keep describing the artefact. A view
// only one of them ranked would make the benchmark's parity checks fail.
func TestEnginesRankTheFeasibleView(t *testing.T) {
	atGOMAXPROCS(t, 3)
	lib, _ := trainQuick(t)
	if got, want := lib.Candidates(), core.DefaultCandidates(96); !slices.Equal(got, want) {
		t.Fatalf("Candidates() = %v, want the artefact's %v", got, want)
	}
	shared, private := lib.Engine(ServeOptions{}), lib.Engine(ServeOptions{CacheSize: 64, Shards: 2})
	ts := httptest.NewServer(lib.NewServer(ServeOptions{}))
	defer ts.Close()
	client := serve.NewClient(ts.URL, nil)
	for _, eng := range []*Engine{shared, private, lib.BLAS().Engine()} {
		if got := eng.Candidates(); !slices.Equal(got, []int{1, 2, 3}) {
			t.Fatalf("engine ranks %v at GOMAXPROCS 3, want [1 2 3]", got)
		}
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(23))
	above := 0
	for i := 0; i < 60; i++ {
		op := []Op{OpGEMM, OpSYRK, OpSYR2K}[i%3]
		m, k, n := 1+rng.Intn(3000), 1+rng.Intn(3000), 1+rng.Intn(3000)
		if op != OpGEMM {
			m = n
		}
		want, best := 0, 0.0
		for _, c := range []int{1, 2, 3} {
			if rt := lib.PredictRuntimeOp(op, m, k, n, c); want == 0 || rt < best {
				want, best = c, rt
			}
		}
		if lib.OptimalThreadsOp(op, m, k, n) > 3 {
			above++
		}
		a, _ := shared.PredictOpCtx(ctx, op, m, k, n)
		b, _ := private.PredictOpCtx(ctx, op, m, k, n)
		c, err := client.Predict(ctx, serve.PredictRequest{Op: op.String(), M: m, K: k, N: n})
		if err != nil {
			t.Fatal(err)
		}
		if a != want || b != want || c != want {
			t.Errorf("%v %dx%dx%d: shared %d, private %d, server %d; argmin of the artefact's predictions over [1 2 3] is %d",
				op, m, k, n, a, b, c, want)
		}
	}
	if above == 0 {
		t.Error("no probe shape's artefact-wide optimum exceeds 3: the test exercised no cut")
	}
}

// TestUnclampedHostRanksTheArtefactItself: when GOMAXPROCS covers the
// largest candidate the library hands its engines the artefact itself, not a
// copy — decisions, scores and the golden fixture are those of the parent
// commit by construction.
func TestUnclampedHostRanksTheArtefactItself(t *testing.T) {
	atGOMAXPROCS(t, 96)
	lib, _ := trainQuick(t)
	if lib.feasible != lib.inner || lib.Engine(ServeOptions{}).Library() != lib.inner ||
		lib.Engine(ServeOptions{CacheSize: 64}).Library() != lib.inner {
		t.Error("an unclamped host must rank the artefact's own library")
	}
}

// TestGuardHoldsWhenGOMAXPROCSDrops lowers GOMAXPROCS to 1 after the shared
// engine (and its feasible view, sized at 4) exists: the engine may still
// name a larger count, and the per-call guard must bring the executed thread
// count, LastChoice and the measured record down to 1.
func TestGuardHoldsWhenGOMAXPROCSDrops(t *testing.T) {
	atGOMAXPROCS(t, 4)
	lib, _ := trainQuick(t)
	b := lib.BLAS()
	eng := b.Engine()
	const k = 64
	m := 0
	for _, dim := range []int{256, 384, 512, 768} {
		if threads, _ := eng.PredictOpCtx(context.Background(), OpGEMM, dim, k, dim); threads > 1 {
			m = dim
			break
		}
	}
	if m == 0 {
		t.Skip("the model sends every probe shape to one thread: nothing for the guard to cut")
	}

	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	eng.SetRecorder(rec)
	defer eng.SetRecorder(nil)

	runtime.GOMAXPROCS(1)
	rng := rand.New(rand.NewSource(4))
	a, x, c := NewMatrixF32(m, k), NewMatrixF32(k, m), NewMatrixF32(m, m)
	a.FillRandom(rng)
	x.FillRandom(rng)
	if err := b.SGEMM(false, false, 1, a, x, 0, c); err != nil {
		t.Fatal(err)
	}
	if raw, ok := eng.CachedChoice(OpGEMM, m, k, m); !ok || raw < 2 {
		t.Fatalf("engine's cached decision = (%d, %v), want the view's choice above one thread", raw, ok)
	}
	if got := b.LastChoice(OpGEMM, m, k, m); got != 1 {
		t.Errorf("LastChoice = %d at GOMAXPROCS 1, want 1", got)
	}
	measured := 0
	for _, r := range capturedRecords(t, rec, prefix) {
		if !r.IsDecision() {
			measured++
			if r.Threads != 1 {
				t.Errorf("measured record ran %d threads at GOMAXPROCS 1, want 1", r.Threads)
			}
		}
	}
	if measured != 1 {
		t.Errorf("captured %d measured records, want 1", measured)
	}
}

// TestAllCandidatesAboveHost: an artefact with no candidate this host can
// run still decides (its smallest candidate is all the engines rank) and the
// facade still executes at most GOMAXPROCS threads.
func TestAllCandidatesAboveHost(t *testing.T) {
	atGOMAXPROCS(t, 2)
	trained, _ := trainQuick(t)
	inner := &core.Library{Platform: trained.Platform(), Candidates: []int{8, 16, 48}}
	for _, op := range trained.inner.TrainedOps() {
		if err := inner.SetModel(op, trained.inner.ModelFor(op)); err != nil {
			t.Fatal(err)
		}
	}
	lib := newLibrary(inner)
	b := lib.BLAS()
	if got := b.Engine().Candidates(); !slices.Equal(got, []int{8}) {
		t.Fatalf("engine ranks %v, want the smallest candidate alone", got)
	}
	if got := lib.Candidates(); !slices.Equal(got, []int{8, 16, 48}) {
		t.Errorf("Candidates() = %v, want the artefact's set", got)
	}
	rng := rand.New(rand.NewSource(6))
	a, x, c := NewMatrixF32(40, 24), NewMatrixF32(24, 32), NewMatrixF32(40, 32)
	a.FillRandom(rng)
	x.FillRandom(rng)
	if err := b.SGEMM(false, false, 1, a, x, 0, c); err != nil {
		t.Fatal(err)
	}
	if raw, _ := b.Engine().CachedChoice(OpGEMM, 40, 24, 32); raw != 8 {
		t.Errorf("engine decided %d, want 8", raw)
	}
	if got := b.LastChoice(OpGEMM, 40, 24, 32); got != 2 {
		t.Errorf("facade executed %d threads, want GOMAXPROCS = 2", got)
	}
}

// TestLocalInstallSweepsWhatRuns pins the train side of the definition: a
// -platform local install times exactly the thread counts the facade can
// execute here, nothing above GOMAXPROCS.
func TestLocalInstallSweepsWhatRuns(t *testing.T) {
	for _, procs := range []int{1, 2, 5} {
		atGOMAXPROCS(t, procs)
		cfg, err := core.Recipe(TrainOptions{Platform: "local"})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cfg.Gather.Candidates, core.DefaultCandidates(procs); !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: local sweep over %v, want %v", procs, got, want)
		}
		if cfg.ReferenceThreads != procs {
			t.Errorf("GOMAXPROCS %d: reference threads %d", procs, cfg.ReferenceThreads)
		}
	}
}
