package serve

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sampling"
)

// TestWarmupOpSet pins the per-op warm-up satellite: an explicit op set
// warms every listed op's cache under its canonical triple, and the default
// (no ops given) warms every trained op.
func TestWarmupOpSet(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 1024})
	dom := sampling.DefaultDomain().WithCapMB(100)

	n, err := eng.Warmup(bg, dom, 32, 7, OpGEMM, OpSYRK)
	if err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("Warmup over two ops = %d decisions, want 64", n)
	}

	sampler, err := sampling.NewSampler(dom, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range sampler.Sample(32) {
		if _, ok := eng.CachedChoice(OpGEMM, sh.M, sh.K, sh.N); !ok {
			t.Fatalf("gemm shape %v not warmed", sh)
		}
		// SYRK warms under its canonical (m, k, m) triple — the form
		// runtime queries arrive in.
		if _, ok := eng.CachedChoice(OpSYRK, sh.M, sh.K, sh.M); !ok {
			t.Fatalf("syrk canonical shape of %v not warmed", sh)
		}
	}

	// Warm-up stays out of the serving counters, aggregate and per op.
	st := eng.Stats()
	if st.Predictions != 0 || st.CacheMisses != 0 {
		t.Errorf("serving counters polluted by per-op warm-up: %+v", st)
	}
	if len(st.PerOp) != 0 {
		t.Errorf("per-op serving counters polluted by warm-up: %+v", st.PerOp)
	}
	if st.WarmupDecisions != 64 {
		t.Errorf("WarmupDecisions = %d, want 64", st.WarmupDecisions)
	}

	// Unknown op errors.
	if _, err := eng.Warmup(bg, dom, 4, 1, Op(250)); err == nil {
		t.Error("warmup of an unknown op should error")
	}

	// Default op set on this GEMM-only library = just GEMM.
	eng2 := NewEngine(l, Options{CacheSize: 256})
	if n, err := eng2.Warmup(bg, dom, 16, 3); n != 16 || err != nil {
		t.Errorf("default Warmup = (%d, %v), want (16, nil) on a GEMM-only library", n, err)
	}
}

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

// TestCacheSnapshotRoundTrip pins the snapshot satellite: Save captures
// every (op, shape)→threads decision, Load restores them — including the
// per-shard LRU order — and corrupt files are rejected whole.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	c := NewCache(64, 4)
	c.Put(OpGEMM, 256, 128, 256, 8)
	c.Put(OpSYRK, 256, 128, 256, 4)
	c.Put(OpSYR2K, 512, 64, 512, 16)
	c.Put(OpGEMM, 1024, 1024, 1024, 48)
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}

	r := NewCache(64, 4)
	n, err := r.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || r.Len() != 4 {
		t.Fatalf("restored %d entries, cache holds %d; want 4", n, r.Len())
	}
	for _, tc := range []struct {
		op      Op
		m, k, n int
		want    int
	}{
		{OpGEMM, 256, 128, 256, 8},
		{OpSYRK, 256, 128, 256, 4},
		{OpSYR2K, 512, 64, 512, 16},
		{OpGEMM, 1024, 1024, 1024, 48},
	} {
		if th, ok := r.Peek(tc.op, tc.m, tc.k, tc.n); !ok || th != tc.want {
			t.Errorf("restored %v %dx%dx%d = (%d, %v), want %d", tc.op, tc.m, tc.k, tc.n, th, ok, tc.want)
		}
	}

	// LRU order survives the round trip: in a single-shard cache, the
	// oldest entry before Save is still the first evicted after Load.
	lru := NewCache(4, 1)
	for i := 1; i <= 4; i++ {
		lru.Put(OpGEMM, i, i, i, i)
	}
	lru.Get(OpGEMM, 1, 1, 1) // refresh 1; LRU is now 2
	lruPath := filepath.Join(dir, "lru.json")
	if err := lru.Save(lruPath); err != nil {
		t.Fatal(err)
	}
	lru2 := NewCache(4, 1)
	if _, err := lru2.Load(lruPath); err != nil {
		t.Fatal(err)
	}
	lru2.Put(OpGEMM, 5, 5, 5, 5) // one eviction
	if _, ok := lru2.Peek(OpGEMM, 2, 2, 2); ok {
		t.Error("entry 2 should have been the LRU after restore")
	}
	if _, ok := lru2.Peek(OpGEMM, 1, 1, 1); !ok {
		t.Error("refreshed entry 1 evicted: LRU order lost in the snapshot")
	}

	// Corrupt or foreign files are rejected without touching the cache.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"format":"other","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache(16, 2)
	if _, err := fresh.Load(bad); err == nil {
		t.Error("foreign format accepted")
	}
	if err := os.WriteFile(bad, []byte(`{"format":"adsala-cache-snapshot-v1","entries":[{"op":"trsm","m":1,"k":1,"n":1,"threads":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Load(bad); err == nil {
		t.Error("unknown op accepted")
	}
	if fresh.Len() != 0 {
		t.Errorf("failed Load left %d entries behind", fresh.Len())
	}
	if _, err := fresh.Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
