package adsala

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/simtime"
)

// TestSharedEngineAcrossFacades is the regression test for the split-cache
// bug: facades used to construct a private serve.Engine each, so two from
// the same library kept disjoint decision caches and their CacheStats never
// agreed with Library.Engine's /stats. Every facade must observe one cache.
func TestSharedEngineAcrossFacades(t *testing.T) {
	lib, _ := trainQuick(t)
	b := lib.BLAS()
	g := lib.BLAS()
	s := lib.BLAS()
	atGOMAXPROCS(t, 2)

	rng := rand.New(rand.NewSource(9))
	a := NewMatrixF32(16, 16)
	x := NewMatrixF32(16, 16)
	c := NewMatrixF32(16, 16)
	a.FillRandom(rng)
	x.FillRandom(rng)
	for i := 0; i < 5; i++ {
		if err := g.SGEMM(false, false, 1, a, x, 0, c); err != nil {
			t.Fatal(err)
		}
	}
	gh, gm := g.CacheStats()
	if gh < 4 || gm < 1 {
		t.Fatalf("gemm facade stats (%d, %d), want ≥4 hits and ≥1 miss", gh, gm)
	}
	// The other facades and the default engine see the same counters.
	if bh, bm := b.CacheStats(); bh != gh || bm != gm {
		t.Errorf("BLAS facade sees (%d, %d), gemm facade (%d, %d)", bh, bm, gh, gm)
	}
	if sh, sm := s.CacheStats(); sh != gh || sm != gm {
		t.Errorf("syrk facade sees (%d, %d), gemm facade (%d, %d)", sh, sm, gh, gm)
	}
	st := lib.Engine(ServeOptions{}).Stats()
	if st.CacheHits != gh || st.CacheMisses != gm {
		t.Errorf("Library.Engine stats (%d, %d) disagree with facade (%d, %d)",
			st.CacheHits, st.CacheMisses, gh, gm)
	}
	// A decision warmed through one facade is a cached choice for another.
	if got := b.LastChoice(OpGEMM, 16, 16, 16); got < 1 {
		t.Errorf("BLAS.LastChoice after Gemm facade calls = %d, want cached decision", got)
	}
	// Non-zero options still build a private engine.
	if priv := lib.Engine(ServeOptions{CacheSize: 64}); priv == lib.Engine(ServeOptions{}) {
		t.Error("custom-option engine must not be the shared engine")
	}
}

// TestNoHTReachesSimulator pins the TrainOptions.NoHT contract: the flag
// must reach simtime.Config.HT (it disables hyper-threading) and cap the
// candidate thread counts at the physical core count.
func TestNoHTReachesSimulator(t *testing.T) {
	cfg, err := buildConfig(TrainOptions{Platform: "Gadi", NoHT: true})
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := cfg.Gather.Timer.(*simtime.Simulator)
	if !ok {
		t.Fatalf("timer is %T, want *simtime.Simulator", cfg.Gather.Timer)
	}
	if sim.Config().HT {
		t.Error("NoHT: true did not reach simtime.Config.HT = false")
	}
	if max := cfg.Gather.Candidates[len(cfg.Gather.Candidates)-1]; max != 48 {
		t.Errorf("NoHT candidates top out at %d, want Gadi's 48 physical cores", max)
	}
	// Default: hyper-threading on, 96 hardware threads.
	cfg, err = buildConfig(TrainOptions{Platform: "Gadi"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Gather.Timer.(*simtime.Simulator).Config().HT {
		t.Error("default TrainOptions should enable hyper-threading")
	}
	if max := cfg.Gather.Candidates[len(cfg.Gather.Candidates)-1]; max != 96 {
		t.Errorf("default candidates top out at %d, want 96", max)
	}

	// The built simulator is the node's default one with only HT and Seed
	// set: noise, blocking and affinity all come from DefaultConfig.
	for _, name := range []string{"Gadi", "Setonix"} {
		for _, noHT := range []bool{false, true} {
			cfg, err := buildConfig(TrainOptions{Platform: name, NoHT: noHT, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			got := cfg.Gather.Timer.(*simtime.Simulator).Config()
			node, err := machine.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			want := simtime.DefaultConfig(node)
			want.HT, want.Seed = !noHT, 7
			if *got.Node != *want.Node {
				t.Errorf("%s NoHT=%v: simulator node %+v, want %+v", name, noHT, *got.Node, *want.Node)
			}
			got.Node = want.Node
			if got != want {
				t.Errorf("%s NoHT=%v: simulator config %+v, want %+v", name, noHT, got, want)
			}
		}
	}
}

// TestV1ArtefactBackwardCompat loads the committed pre-registry (format v1)
// artefact and pins that GEMM predictions are identical to the decisions
// recorded when it was saved.
func TestV1ArtefactBackwardCompat(t *testing.T) {
	lib, err := Load(filepath.Join("testdata", "v1.adsala.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.TrainedOps(); len(got) != 1 || got[0] != OpGEMM {
		t.Fatalf("v1 artefact trained ops = %v, want [gemm]", got)
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Shape   [3]int `json:"shape"`
		Threads int    `json:"threads"`
	}
	if err := json.Unmarshal(blob, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) == 0 {
		t.Fatal("empty golden file")
	}
	for _, g := range golden {
		if got := lib.OptimalThreadsOp(OpGEMM, g.Shape[0], g.Shape[1], g.Shape[2]); got != g.Threads {
			t.Errorf("shape %v: v1 artefact now predicts %d, recorded %d", g.Shape, got, g.Threads)
		}
	}
	// A v1 artefact round-trips through the v2 writer and keeps predicting
	// the same.
	path := filepath.Join(t.TempDir(), "rewritten.adsala.json")
	if err := lib.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range golden {
		if got := back.OptimalThreadsOp(OpGEMM, g.Shape[0], g.Shape[1], g.Shape[2]); got != g.Threads {
			t.Errorf("shape %v: v1→v2 rewrite predicts %d, recorded %d", g.Shape, got, g.Threads)
		}
	}
}

// TestPerOpTrainingThroughPublicAPI trains GEMM + SYRK models and pins that
// the serving path stops borrowing the GEMM model for SYRK.
func TestPerOpTrainingThroughPublicAPI(t *testing.T) {
	lib, rep, err := Train(TrainOptions{
		Platform: "Gadi", Shapes: 40, Quick: true, CapMB: 100,
		Ops: []Op{OpSYRK},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.TrainedOps(); len(got) != 2 || got[0] != OpGEMM || got[1] != OpSYRK {
		t.Fatalf("trained ops = %v, want [gemm syrk]", got)
	}
	if len(rep.PerOp) != 2 || rep.PerOp[1].Op != "syrk" || len(rep.PerOp[1].Rows) == 0 {
		t.Fatalf("per-op report sections missing: %+v", rep.PerOp)
	}
	// The SYRK model prices the triangular cost profile below GEMM's.
	g := lib.PredictRuntimeOp(OpGEMM, 600, 400, 600, 8)
	s := lib.PredictRuntimeOp(OpSYRK, 600, 400, 600, 8)
	if !(s > 0 && s < g) {
		t.Errorf("predicted runtimes gemm=%v syrk=%v, want 0 < syrk < gemm", g, s)
	}
	// End to end: SYR2K executes through the facade (GEMM model fallback)
	// and produces the right numbers.
	b := lib.BLAS()
	atGOMAXPROCS(t, 2)
	rng := rand.New(rand.NewSource(10))
	a := NewMatrixF32(24, 9)
	x := NewMatrixF32(24, 9)
	c := NewMatrixF32(24, 24)
	a.FillRandom(rng)
	x.FillRandom(rng)
	if err := b.SSYR2K(false, 1, a, x, 0, c); err != nil {
		t.Fatal(err)
	}
	var want float32
	for p := 0; p < 9; p++ {
		want += a.At(5, p)*x.At(2, p) + x.At(5, p)*a.At(2, p)
	}
	if d := c.At(5, 2) - want; d > 1e-4 || d < -1e-4 {
		t.Errorf("SYR2K C[5,2] = %v, want %v", c.At(5, 2), want)
	}
	if c.At(2, 5) != c.At(5, 2) {
		t.Error("SYR2K result not symmetric")
	}
	if got := b.LastChoice(OpSYR2K, 24, 9, 24); got < 1 || got > 2 {
		t.Errorf("LastChoice(syr2k) = %d, want clamped selection in [1,2]", got)
	}
	// Per-op bundle round-trips through save/load with per-op decisions.
	path := filepath.Join(t.TempDir(), "bundle.adsala.json")
	if err := lib.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpGEMM, OpSYRK, OpSYR2K} {
		if a, b := lib.OptimalThreadsOp(op, 512, 256, 512), back.OptimalThreadsOp(op, 512, 256, 512); a != b {
			t.Errorf("op %v decision changed %d -> %d across save/load", op, a, b)
		}
	}
	// The double-precision SYR2K path runs too.
	ad := NewMatrixF64(7, 13)
	xd := NewMatrixF64(7, 13)
	cd := NewMatrixF64(13, 13)
	ad.FillRandom(rng)
	xd.FillRandom(rng)
	if err := b.DSYR2K(true, 2, ad, xd, 0, cd); err != nil {
		t.Fatal(err)
	}
	if cd.At(3, 8) != cd.At(8, 3) {
		t.Error("DSYR2K result not symmetric")
	}
}
