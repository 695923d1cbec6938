package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsConsistentUnderLoad is the torn-read regression test: it
// hammers the engine from several goroutines while polling Stats, and
// asserts that every snapshot is internally consistent — Predictions is
// exactly CacheHits + CacheMisses and the derived HitRate exactly
// CacheHits/(CacheHits+CacheMisses) of the same snapshot. Every figure is
// derived from one load of each per-op {hits, misses} pair, so no
// interleaving can pull them apart.
func TestStatsConsistentUnderLoad(t *testing.T) {
	e := NewEngine(lib(t), Options{CacheSize: 64, Shards: 4})
	shapes := mixedShapes(48)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				sh := shapes[(i*7+seed)%len(shapes)]
				op := Op((i + seed) % 3)
				predict(e, op, sh.M, sh.K, sh.N)
			}
		}(w)
	}

	for poll := 0; poll < 300; poll++ {
		st := e.Stats()
		checkStatsConsistent(t, st)
	}
	stop.Store(true)
	wg.Wait()
	checkStatsConsistent(t, e.Stats())
}

// checkStatsConsistent asserts the single-snapshot invariants of one
// Stats value.
func checkStatsConsistent(t *testing.T, st Stats) {
	t.Helper()
	for _, v := range []int64{st.Predictions, st.CacheHits, st.CacheMisses} {
		if v < 0 {
			t.Fatalf("negative counter in %+v", st)
		}
	}
	if st.Predictions != st.CacheHits+st.CacheMisses {
		t.Fatalf("predictions %d != hits %d + misses %d",
			st.Predictions, st.CacheHits, st.CacheMisses)
	}
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		if want := float64(st.CacheHits) / float64(total); st.HitRate != want {
			t.Fatalf("torn hit rate: got %v, counters give exactly %v (%+v)",
				st.HitRate, want, st)
		}
	} else if st.HitRate != 0 {
		t.Fatalf("hit rate %v with no traffic", st.HitRate)
	}
}

// TestServerReadiness pins the one probe: /healthz answers 200 with
// exactly the key tree below from the first answer (degraded and
// drifting_ops join it only while drift monitoring reports drift), and there
// is no second probe or readiness gate.
func TestServerReadiness(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(body))
	for k := range body {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"artefact_generation", "format_version", "model", "ops", "platform", "status"}
	if resp.StatusCode != http.StatusOK || !slices.Equal(keys, want) || body["status"] != "ok" {
		t.Errorf("healthz = %d with keys %v (status %v), want 200 with %v and status ok", resp.StatusCode, keys, body["status"], want)
	}
	if ops, _ := body["ops"].([]any); body["format_version"].(float64) < 1 || len(ops) == 0 {
		t.Errorf("health body lacks artefact info: %v", body)
	}

	livez, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	livez.Body.Close()
	if livez.StatusCode != http.StatusNotFound {
		t.Errorf("/livez: HTTP %d, want 404", livez.StatusCode)
	}
}

// TestServerMetricsEndpoint scrapes /metrics after traffic and checks the
// engine and HTTP families appear with per-op labels and histogram series.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	if _, err := client.Predict(bg, PredictRequest{M: 96, K: 96, N: 96}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictBatch(bg, requests(OpGEMM, mixedShapes(5))); err != nil {
		t.Fatal(err)
	}
	// An interleaved mixed-op batch is still one /batch request.
	mixed := make([]PredictRequest, 6)
	for i := range mixed {
		mixed[i] = PredictRequest{M: 64 + i, K: 64, N: 64 + i, Op: Op(i % 3).String()}
	}
	if _, err := client.PredictBatch(bg, mixed); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		`adsala_serve_decisions_total{op="gemm"}`,
		`adsala_serve_cache_misses_total{op="gemm"}`,
		`adsala_serve_decision_latency_seconds_bucket{op="gemm",le="+Inf"}`,
		`adsala_serve_decision_latency_seconds_count{op="gemm"}`,
		`adsala_serve_batch_size_count`,
		`adsala_serve_cache_entries{shard="0"}`,
		`adsala_serve_cache_capacity_entries`,
		`adsala_http_requests_total{result="ok",route="predict"}`,
		`adsala_http_request_seconds_count{route="batch"}`,
		"adsala_serve_artefact_format_version",
		`adsala_build_info{go_version="`,
		"adsala_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
	// adsala_serve_batch_size is shapes per /batch request: one observation
	// per request whatever ops it mixes.
	if count, sum := metricValue(t, text, "adsala_serve_batch_size_count"), metricValue(t, text, "adsala_serve_batch_size_sum"); count != 2 || sum != 11 {
		t.Errorf("batch size histogram holds %v requests of %v shapes, want 2 of 11", count, sum)
	}
	if strings.Contains(text, "adsala_serve_ready") {
		t.Error("the exposition still has the readiness gauge")
	}
	if strings.Contains(text, "-1") {
		t.Errorf("negative value in exposition:\n%s", text)
	}
}

// TestServerPprofGate checks profiling endpoints stay off until
// explicitly enabled.
func TestServerPprofGate(t *testing.T) {
	srv, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}
	srv.EnablePprof()
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d after EnablePprof", resp.StatusCode)
	}
}
