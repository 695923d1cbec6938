package serve

import (
	"testing"

	"repro/internal/sampling"
)

// TestPerOpStats pins the per-op serving counters: hits, misses and
// predictions split by op while the aggregates keep their old meaning.
func TestPerOpStats(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 256})

	predict(eng, OpGEMM, 100, 100, 100)      // gemm miss
	predict(eng, OpGEMM, 100, 100, 100)      // gemm hit
	predict(eng, OpSYRK, 100, 100, 100)      // syrk miss (distinct key)
	eng.RankOpCtx(bg, OpSYRK, 200, 100, 200) // syrk miss by contract
	shapes := []sampling.Shape{{M: 50, K: 50, N: 50}, {M: 50, K: 50, N: 50}, {M: 60, K: 60, N: 60}}
	predictBatch(eng, OpSYR2K, shapes, nil) // 2 syr2k misses + 1 dedup hit

	st := eng.Stats()
	if st.Predictions != 7 || st.CacheHits != 2 || st.CacheMisses != 5 {
		t.Fatalf("aggregates = %d/%d/%d, want 7 predictions, 2 hits, 5 misses",
			st.Predictions, st.CacheHits, st.CacheMisses)
	}
	gemm := st.PerOp["gemm"]
	if gemm.Predictions != 2 || gemm.CacheHits != 1 || gemm.CacheMisses != 1 || gemm.HitRate != 0.5 {
		t.Errorf("gemm per-op stats = %+v", gemm)
	}
	syrk := st.PerOp["syrk"]
	if syrk.Predictions != 2 || syrk.CacheHits != 0 || syrk.CacheMisses != 2 {
		t.Errorf("syrk per-op stats = %+v", syrk)
	}
	syr2k := st.PerOp["syr2k"]
	if syr2k.Predictions != 3 || syr2k.CacheHits != 1 || syr2k.CacheMisses != 2 {
		t.Errorf("syr2k per-op stats = %+v", syr2k)
	}
	// Per-op counters decompose the aggregates exactly.
	var p, h, m int64
	for _, os := range st.PerOp {
		p += os.Predictions
		h += os.CacheHits
		m += os.CacheMisses
	}
	if p != st.Predictions || h != st.CacheHits || m != st.CacheMisses {
		t.Errorf("per-op sums %d/%d/%d do not decompose aggregates %d/%d/%d",
			p, h, m, st.Predictions, st.CacheHits, st.CacheMisses)
	}
}

// TestPerOpStatsAtEndpoint checks /stats carries the per_op section.
func TestPerOpStatsAtEndpoint(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	if _, err := client.Predict(bg, PredictRequest{M: 64, K: 64, N: 64, Op: OpSYRK.String()}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Predict(bg, PredictRequest{M: 64, K: 64, N: 64, Op: OpSYRK.String()}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	syrk, ok := stats.Engine.PerOp["syrk"]
	if !ok {
		t.Fatalf("/stats has no per_op entry for syrk: %+v", stats.Engine.PerOp)
	}
	if syrk.Predictions != 2 || syrk.CacheHits != 1 || syrk.CacheMisses != 1 {
		t.Errorf("syrk at /stats = %+v", syrk)
	}
	_ = srv
}
