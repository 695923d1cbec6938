package core

import (
	"math"
	"os"
	"path/filepath"
	"repro/internal/ops"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// quickGather returns a small simulated-Gadi gather config for tests.
func quickGather(shapes int) GatherConfig {
	sim := simtime.New(simtime.DefaultConfig(machine.Gadi()))
	return GatherConfig{
		Timer:      sim,
		Domain:     sampling.DefaultDomain().WithCapMB(100),
		NumShapes:  shapes,
		Candidates: DefaultCandidates(96),
		Iters:      3,
		Seed:       1,
	}
}

func quickTrain(t *testing.T, shapes int) *TrainResult {
	t.Helper()
	cfg := DefaultTrainConfig(quickGather(shapes), "Gadi", 48)
	cfg.Models = DefaultModels(1, true)
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGatherLocalItersExact pins the local-platform timing budget: one
// Gather with Iters: 3 must run exactly NumShapes × len(Candidates) × 3
// timed GEMMs. When the timer carried a repetition count of its own the
// two compounded (9 GEMMs per configuration for Iters: 3), silently
// tripling installation time.
func TestGatherLocalItersExact(t *testing.T) {
	rt := simtime.NewRealTimer()
	cfg := GatherConfig{
		Timer:      rt,
		Domain:     sampling.Domain{MaxDim: 32, MaxBytes: 1 << 20, ElemBytes: 4},
		NumShapes:  2,
		Candidates: []int{1, 2},
		Iters:      3,
		Seed:       1,
	}
	data, err := Gather(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2 {
		t.Fatalf("gathered %d shapes", len(data))
	}
	want := int64(2 * 2 * 3) // shapes × candidates × iters
	if got := rt.GemmCalls(); got != want {
		t.Errorf("gather ran %d timed GEMMs, want exactly %d (iters must not compound)", got, want)
	}
}

func TestDefaultCandidates(t *testing.T) {
	g := DefaultCandidates(96)
	if g[len(g)-1] != 96 || g[0] != 1 {
		t.Errorf("Gadi candidates = %v", g)
	}
	s := DefaultCandidates(256)
	if s[len(s)-1] != 256 {
		t.Errorf("Setonix candidates = %v", s)
	}
	// No duplicates, sorted.
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Errorf("candidates not strictly increasing: %v", s)
		}
	}
	odd := DefaultCandidates(7)
	if odd[len(odd)-1] != 7 {
		t.Errorf("max not included: %v", odd)
	}
}

func TestGatherValidation(t *testing.T) {
	if _, err := Gather(GatherConfig{}); err == nil {
		t.Error("nil timer should error")
	}
	cfg := quickGather(0)
	if _, err := Gather(cfg); err == nil {
		t.Error("zero shapes should error")
	}
	cfg = quickGather(3)
	cfg.Candidates = nil
	if _, err := Gather(cfg); err == nil {
		t.Error("no candidates should error")
	}
}

func TestGatherShapes(t *testing.T) {
	data, err := Gather(quickGather(12))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 12 {
		t.Fatalf("%d shapes", len(data))
	}
	for _, st := range data {
		if len(st.Times) != len(DefaultCandidates(96)) {
			t.Fatalf("shape %v has %d timings", st.Shape, len(st.Times))
		}
		for _, ct := range st.Times {
			if ct.Seconds <= 0 {
				t.Fatalf("non-positive timing for %v @%d", st.Shape, ct.Threads)
			}
		}
		if _, ok := st.TimeAt(48); !ok {
			t.Fatal("reference threads missing from sweep")
		}
		if _, ok := st.TimeAt(5); ok {
			t.Fatal("TimeAt should miss non-candidate count")
		}
		best := st.BestMeasured()
		for _, ct := range st.Times {
			if ct.Seconds < best.Seconds {
				t.Fatal("BestMeasured not minimal")
			}
		}
	}
}

func TestRecordsFlattening(t *testing.T) {
	data, _ := Gather(quickGather(4))
	recs := Records(data)
	if len(recs) != 4*len(DefaultCandidates(96)) {
		t.Fatalf("%d records", len(recs))
	}
}

func TestTrainEndToEnd(t *testing.T) {
	res := quickTrain(t, 70)
	if len(res.Reports) != 8 {
		t.Fatalf("%d model reports, want 8", len(res.Reports))
	}
	// Normalised RMSE convention: worst model exactly 1.
	worst := 0.0
	for _, r := range res.Reports {
		if r.NormRMSE > worst {
			worst = r.NormRMSE
		}
		if r.RMSE < 0 || math.IsNaN(r.RMSE) {
			t.Errorf("%s: RMSE %v", r.Name, r.RMSE)
		}
		if r.EvalMicros <= 0 {
			t.Errorf("%s: eval time %v", r.Name, r.EvalMicros)
		}
	}
	if math.Abs(worst-1) > 1e-9 {
		t.Errorf("max NormRMSE = %v, want 1", worst)
	}
	// Tree ensembles must out-predict linear models on this surface
	// (the central observation of Tables III/IV).
	rmse := map[string]float64{}
	for _, r := range res.Reports {
		rmse[r.Kind] = r.RMSE
	}
	if rmse["xgb"] >= rmse["linear"] {
		t.Errorf("XGB RMSE %v not below linear %v", rmse["xgb"], rmse["linear"])
	}
	// The selected library must beat doing nothing (estimated mean > 1).
	if res.Library == nil || res.Library.EvalSeconds() < 0 {
		t.Fatal("missing library")
	}
	best, _ := SpecByKind(DefaultModels(1, true), res.Library.ModelKind())
	if best.Kind == "" {
		t.Errorf("selected kind %q not among specs", res.Library.ModelKind())
	}
	// Report renders all rows.
	txt := RenderReport(res.Reports)
	if !strings.Contains(txt, "XGBoost") || !strings.Contains(txt, "EstMean") {
		t.Errorf("report rendering:\n%s", txt)
	}
}

func TestTrainOnDataValidation(t *testing.T) {
	data, _ := Gather(quickGather(12))
	cfg := DefaultTrainConfig(quickGather(12), "Gadi", 48)
	cfg.Models = DefaultModels(1, true)

	bad := cfg
	bad.TestFrac = 0
	if _, err := TrainOnData(bad, data); err == nil {
		t.Error("TestFrac=0 should error")
	}
	bad = cfg
	bad.ReferenceThreads = 31
	if _, err := TrainOnData(bad, data); err == nil {
		t.Error("reference not in candidates should error")
	}
	bad = cfg
	bad.Models = nil
	if _, err := TrainOnData(bad, data); err == nil {
		t.Error("no models should error")
	}
	if _, err := TrainOnData(cfg, data[:3]); err == nil {
		t.Error("too few shapes should error")
	}
}

func TestLibraryPredictSeconds(t *testing.T) {
	res := quickTrain(t, 60)
	lib := res.Library
	// Predicted seconds are positive, and the ranking makes argmin coherent:
	// the optimal thread count's prediction is the smallest.
	m, k, n := 512, 512, 512
	opt := lib.OptimalThreadsOp(ops.GEMM, m, k, n)
	pOpt := lib.PredictOpSeconds(ops.GEMM, m, k, n, opt)
	if pOpt <= 0 {
		t.Fatalf("predicted %v", pOpt)
	}
	for _, c := range lib.Candidates {
		if lib.PredictOpSeconds(ops.GEMM, m, k, n, c) < pOpt-1e-15 {
			t.Fatalf("candidate %d predicted faster than chosen %d", c, opt)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res := quickTrain(t, 60)
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := res.Library.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Platform != res.Library.Platform || back.ModelKind() != res.Library.ModelKind() {
		t.Errorf("metadata changed: %+v", back)
	}
	for _, sh := range [][3]int{{64, 64, 64}, {1000, 500, 2000}, {4096, 64, 64}} {
		a := res.Library.OptimalThreadsOp(ops.GEMM, sh[0], sh[1], sh[2])
		b := back.OptimalThreadsOp(ops.GEMM, sh[0], sh[1], sh[2])
		if a != b {
			t.Errorf("shape %v: choice changed %d -> %d after reload", sh, a, b)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(bad, "{"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bad); err == nil {
		t.Error("corrupt file should error")
	}
	v0 := filepath.Join(t.TempDir(), "v0.json")
	if err := writeFile(v0, `{"format_version":0}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(v0); err == nil {
		t.Error("wrong version should error")
	}
}

func TestTrainedModelPicksFewThreadsForSkinnyShapes(t *testing.T) {
	// The qualitative behaviour behind Table VII: a trained library should
	// choose far fewer threads for 64×2048×64 than for a large square GEMM.
	res := quickTrain(t, 90)
	lib := res.Library
	skinny := lib.OptimalThreadsOp(ops.GEMM, 64, 2048, 64)
	square := lib.OptimalThreadsOp(ops.GEMM, 6000, 6000, 6000)
	if skinny >= square {
		t.Errorf("skinny choice %d not below square choice %d", skinny, square)
	}
	if skinny > 48 {
		t.Errorf("skinny shape assigned %d threads", skinny)
	}
}

// writeFile is a tiny test helper (avoids importing os in multiple places).
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
