package adsala

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func trainQuick(t *testing.T) (*Library, *Report) {
	t.Helper()
	lib, rep, err := Train(TrainOptions{Platform: "Gadi", Shapes: 60, Quick: true, CapMB: 100})
	if err != nil {
		t.Fatal(err)
	}
	return lib, rep
}

func TestTrainValidation(t *testing.T) {
	if _, _, err := Train(TrainOptions{Platform: "Frontier"}); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestTrainAndFacade(t *testing.T) {
	lib, rep := trainQuick(t)
	if lib.Platform() != "Gadi" {
		t.Errorf("Platform = %q", lib.Platform())
	}
	if lib.ModelKind() == "" {
		t.Error("no model kind")
	}
	if len(lib.Candidates()) == 0 || lib.Candidates()[0] != 1 {
		t.Errorf("candidates = %v", lib.Candidates())
	}
	if got := lib.OptimalThreadsOp(OpGEMM, 512, 512, 512); got < 1 || got > 96 {
		t.Errorf("OptimalThreads = %d", got)
	}
	if rt := lib.PredictRuntimeOp(OpGEMM, 512, 512, 512, 8); rt <= 0 {
		t.Errorf("PredictRuntime = %v", rt)
	}
	if lib.EvalLatency() <= 0 {
		t.Errorf("EvalLatency = %v", lib.EvalLatency())
	}
	if !strings.Contains(rep.String(), "XGBoost") {
		t.Errorf("report missing models:\n%s", rep)
	}
	if _, ok := rep.Best(lib.ModelKind()); !ok {
		t.Error("selected model missing from report")
	}
}

func TestSaveLoadFacade(t *testing.T) {
	lib, _ := trainQuick(t)
	path := filepath.Join(t.TempDir(), "adsala.json")
	if err := lib.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.OptimalThreadsOp(OpGEMM, 300, 300, 300) != lib.OptimalThreadsOp(OpGEMM, 300, 300, 300) {
		t.Error("choice changed after reload")
	}
}

func TestGemmProducesCorrectResult(t *testing.T) {
	lib, _ := trainQuick(t)
	g := lib.BLAS()
	rng := rand.New(rand.NewSource(1))
	m, k, n := 33, 47, 29
	a := NewMatrixF32(m, k)
	b := NewMatrixF32(k, n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c := NewMatrixF32(m, n)
	if err := g.SGEMM(false, false, 1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	// Verify one element against a manual inner product.
	var want float64
	for p := 0; p < k; p++ {
		want += float64(a.At(3, p)) * float64(b.At(p, 5))
	}
	got := float64(c.At(3, 5))
	if d := got - want; d > 1e-3 || d < -1e-3 {
		t.Errorf("C[3,5] = %v, want %v", got, want)
	}
	// DGEMM path too.
	ad := NewMatrixF64(4, 5)
	bd := NewMatrixF64(5, 6)
	ad.FillRandom(rng)
	bd.FillRandom(rng)
	cd := NewMatrixF64(4, 6)
	if err := g.DGEMM(false, false, 1, ad, bd, 0, cd); err != nil {
		t.Fatal(err)
	}
}

func TestGemmCacheAndClamp(t *testing.T) {
	lib, _ := trainQuick(t)
	g := lib.BLAS()
	atGOMAXPROCS(t, 2)
	// LastChoice is a read-only peek: before any call the shape is uncached
	// and it must report 0 without running a prediction or moving counters.
	if got := g.LastChoice(OpGEMM, 16, 16, 16); got != 0 {
		t.Errorf("LastChoice before any call = %d, want 0", got)
	}
	if hits, misses := g.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("LastChoice moved counters: hits=%d misses=%d", hits, misses)
	}
	rng := rand.New(rand.NewSource(2))
	a := NewMatrixF32(16, 16)
	b := NewMatrixF32(16, 16)
	c := NewMatrixF32(16, 16)
	a.FillRandom(rng)
	b.FillRandom(rng)
	for i := 0; i < 5; i++ {
		if err := g.SGEMM(false, false, 1, a, b, 0, c); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := g.CacheStats()
	if hits < 4 {
		t.Errorf("cache hits = %d after 5 repeated shapes (misses %d)", hits, misses)
	}
	// Now cached: LastChoice reports the clamped selection, still without
	// counting.
	if got := g.LastChoice(OpGEMM, 16, 16, 16); got < 1 || got > 2 {
		t.Errorf("LastChoice after calls = %d, want in [1,2]", got)
	}
	if h2, m2 := g.CacheStats(); h2 != hits || m2 != misses {
		t.Errorf("LastChoice moved counters: (%d,%d) -> (%d,%d)", hits, misses, h2, m2)
	}
}

func TestSyrkFacade(t *testing.T) {
	lib, _ := trainQuick(t)
	s := lib.BLAS()
	atGOMAXPROCS(t, 2)
	rng := rand.New(rand.NewSource(3))
	a := NewMatrixF32(24, 9)
	c := NewMatrixF32(24, 24)
	a.FillRandom(rng)
	if err := s.SSYRK(false, 1, a, 0, c); err != nil {
		t.Fatal(err)
	}
	// Spot-check one entry against a direct dot product and symmetry.
	var want float32
	for p := 0; p < 9; p++ {
		want += a.At(5, p) * a.At(2, p)
	}
	if d := c.At(5, 2) - want; d > 1e-4 || d < -1e-4 {
		t.Errorf("C[5,2] = %v, want %v", c.At(5, 2), want)
	}
	if c.At(2, 5) != c.At(5, 2) {
		t.Error("result not symmetric")
	}
	if got := s.LastChoice(OpSYRK, 24, 9, 24); got < 1 || got > 2 {
		t.Errorf("LastChoice = %d, want clamped selection in [1,2]", got)
	}
	// Transposed double-precision path.
	ad := NewMatrixF64(7, 13)
	cd := NewMatrixF64(13, 13)
	ad.FillRandom(rng)
	if err := s.DSYRK(true, 2, ad, 0, cd); err != nil {
		t.Fatal(err)
	}
	if cd.At(3, 8) != cd.At(8, 3) {
		t.Error("DSYRK result not symmetric")
	}
	// Repeated shapes hit the cache.
	for i := 0; i < 4; i++ {
		if err := s.SSYRK(false, 1, a, 0, c); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := s.CacheStats(); hits < 4 {
		t.Errorf("cache hits = %d after repeated SYRKs", hits)
	}
}

func TestTrainLocalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("local timing in -short mode")
	}
	lib, _, err := Train(TrainOptions{Platform: "local", Shapes: 12, Quick: true, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.OptimalThreadsOp(OpGEMM, 256, 256, 256); got < 1 {
		t.Errorf("local OptimalThreads = %d", got)
	}
}
