package serve

import (
	"testing"

	"repro/internal/sampling"
)

// opCounts is one op's row of the per-op /metrics series.
type opCounts struct{ decisions, hits, misses float64 }

// perOp reads one op's decision, hit and miss counters from an exposition.
func perOp(t *testing.T, text string, op Op) opCounts {
	t.Helper()
	lbl := `{op="` + op.String() + `"}`
	return opCounts{
		decisions: metricValue(t, text, "adsala_serve_decisions_total"+lbl),
		hits:      metricValue(t, text, "adsala_serve_cache_hits_total"+lbl),
		misses:    metricValue(t, text, "adsala_serve_cache_misses_total"+lbl),
	}
}

// TestPerOpStats pins the per-op serving counters: hits, misses and
// decisions split by op on /metrics, while the /stats aggregates keep their
// meaning and are exactly the sums of the per-op rows.
func TestPerOpStats(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 256})

	predict(eng, OpGEMM, 100, 100, 100)      // gemm miss
	predict(eng, OpGEMM, 100, 100, 100)      // gemm hit
	predict(eng, OpSYRK, 100, 100, 100)      // syrk miss (distinct key)
	eng.rankOpCtx(bg, OpSYRK, 200, 100, 200) // syrk miss by contract
	shapes := []sampling.Shape{{M: 50, K: 50, N: 50}, {M: 50, K: 50, N: 50}, {M: 60, K: 60, N: 60}}
	predictBatch(eng, OpSYR2K, shapes, nil) // 2 syr2k misses + 1 dedup hit

	st := eng.Stats()
	if st.Predictions != 7 || st.CacheHits != 2 || st.CacheMisses != 5 {
		t.Fatalf("aggregates = %d/%d/%d, want 7 predictions, 2 hits, 5 misses",
			st.Predictions, st.CacheHits, st.CacheMisses)
	}
	text := engineMetrics(eng)
	for op, want := range map[Op]opCounts{
		OpGEMM:  {decisions: 2, hits: 1, misses: 1},
		OpSYRK:  {decisions: 2, hits: 0, misses: 2},
		OpSYR2K: {decisions: 3, hits: 1, misses: 2},
	} {
		if got := perOp(t, text, op); got != want {
			t.Errorf("%s per-op counters = %+v, want %+v", op, got, want)
		}
	}
	// Per-op counters decompose the aggregates exactly.
	if p, h, m := metricSum(t, text, "adsala_serve_decisions_total"), metricSum(t, text, "adsala_serve_cache_hits_total"), metricSum(t, text, "adsala_serve_cache_misses_total"); p != float64(st.Predictions) || h != float64(st.CacheHits) || m != float64(st.CacheMisses) {
		t.Errorf("per-op sums %v/%v/%v do not decompose aggregates %d/%d/%d",
			p, h, m, st.Predictions, st.CacheHits, st.CacheMisses)
	}
}

// TestPerOpStatsAtEndpoint checks the daemon's /metrics carries the per-op
// rows.
func TestPerOpStatsAtEndpoint(t *testing.T) {
	_, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	for i := 0; i < 2; i++ {
		if _, err := client.Predict(bg, PredictRequest{M: 64, K: 64, N: 64, Op: OpSYRK.String()}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := perOp(t, scrapeMetrics(t, ts.URL), OpSYRK), (opCounts{decisions: 2, hits: 1, misses: 1}); got != want {
		t.Errorf("syrk at /metrics = %+v, want %+v", got, want)
	}
}
