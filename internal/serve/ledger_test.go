package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// parkingModel is a regressor whose Predict parks until released, so a test
// can hold a ranking in flight across a SwapLibrary.
type parkingModel struct {
	entered chan struct{} // receives once a Predict has started
	release chan struct{} // closed to let every Predict return
}

func newParkingModel() *parkingModel {
	return &parkingModel{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (*parkingModel) Name() string                     { return "parked" }
func (*parkingModel) Fit([][]float64, []float64) error { return nil }
func (p *parkingModel) Predict(x []float64) float64 {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	<-p.release
	return 0
}

// constModel scores every candidate alike, so the first one wins.
type constModel struct{}

func (constModel) Name() string                     { return "const" }
func (constModel) Fit([][]float64, []float64) error { return nil }
func (constModel) Predict([]float64) float64        { return 0 }

// stubLibrary is a GEMM-only artefact over the given candidates whose model
// is the given stub (behind the shared test library's pipeline).
func stubLibrary(t *testing.T, candidates []int, model ml.Regressor) *core.Library {
	t.Helper()
	l := &core.Library{Platform: "stub", Candidates: candidates}
	mod := &core.OpModel{Kind: model.Name(), Model: model, Pipeline: lib(t).ModelFor(OpGEMM).Pipeline}
	if err := l.SetModel(OpGEMM, mod); err != nil {
		t.Fatal(err)
	}
	return l
}

// TestReloadDoesNotPoisonCache pins the hot-reload race: a cache miss (or a
// whole batch) that loaded artefact A and is still ranking when
// SwapLibrary(B) lands must finish into A's cache, not B's. Artefact A's
// only candidate is 7 and B lists {1, 2}, so a leaked decision is a thread
// count the new artefact cannot even produce.
func TestReloadDoesNotPoisonCache(t *testing.T) {
	libB := stubLibrary(t, []int{1, 2}, constModel{})

	t.Run("miss", func(t *testing.T) {
		park := newParkingModel()
		e := NewEngine(stubLibrary(t, []int{7}, park), Options{CacheSize: 64, Shards: 2})
		inFlight := make(chan int)
		go func() { inFlight <- predict(e, OpGEMM, 64, 64, 64) }()
		<-park.entered
		e.SwapLibrary(libB)
		close(park.release)
		if got := <-inFlight; got != 7 {
			t.Errorf("the request in flight answered %d, want 7 from the artefact it started with", got)
		}
		if e.Generation() != 1 {
			t.Errorf("generation %d after one swap, want 1", e.Generation())
		}
		if th, ok := e.CachedChoice(OpGEMM, 64, 64, 64); ok && th != 1 && th != 2 {
			t.Errorf("new generation's cache holds %d for the shape: an old-model decision leaked across the swap", th)
		}
		if got := predict(e, OpGEMM, 64, 64, 64); got != 1 && got != 2 {
			t.Errorf("first decision after the swap is %d, not one of the new artefact's candidates {1, 2}", got)
		}
	})

	t.Run("batch", func(t *testing.T) {
		park := newParkingModel()
		e := NewEngine(stubLibrary(t, []int{7}, park), Options{CacheSize: 64, Shards: 2})
		shapes := mixedShapes(8)
		inFlight := make(chan []int)
		go func() { inFlight <- predictBatch(e, OpGEMM, shapes, nil) }()
		<-park.entered
		e.SwapLibrary(libB)
		close(park.release)
		for i, got := range <-inFlight {
			if got != 7 {
				t.Errorf("slot %d of the batch in flight answered %d, want 7 from the artefact it started with", i, got)
			}
		}
		if n := entries(e.Cache()); n != 0 {
			t.Errorf("the overtaken batch left %d decisions in the new generation's cache, want 0", n)
		}
	})
}

// TestHeuristicRepeatIsNotAHit pins the ledger in degraded mode: a heuristic
// answer is never cached, so the repeat of a shape inside a batch whose
// deadline has expired is a second miss and a second fallback — hit_rate
// must not rise exactly when the daemon has stopped ranking.
func TestHeuristicRepeatIsNotAHit(t *testing.T) {
	e := NewEngine(lib(t), Options{})
	ctx, cancel := context.WithCancel(bg)
	cancel()
	sh := sampling.Shape{M: 100, K: 100, N: 100}
	_, fallback := e.PredictBatchOpCtx(ctx, OpGEMM, []sampling.Shape{sh, sh}, nil)
	if len(fallback) != 2 || !fallback[0] || !fallback[1] {
		t.Fatalf("fallback flags %v, want both slots degraded", fallback)
	}
	if st := e.Stats(); st.CacheHits != 0 || st.CacheMisses != 2 || st.Fallbacks != 2 {
		t.Errorf("ledger booked %d hits / %d misses / %d fallbacks, want 0 / 2 / 2",
			st.CacheHits, st.CacheMisses, st.Fallbacks)
	}
}

// metricValue returns the value of one series of a Prometheus text
// exposition, or fails the test when it is absent.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: %v", series, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in the exposition", series)
	return 0
}

// metricSum returns the sum of one metric's samples over every label set
// (0 when it has none).
func metricSum(t *testing.T, text, name string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest == "" || rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		total += v
	}
	return total
}

// engineMetrics renders the engine's /metrics views.
func engineMetrics(e *Engine) string {
	r := obs.NewRegistry()
	e.RegisterMetrics(r)
	var b strings.Builder
	r.WriteText(&b)
	return b.String()
}

// TestStatsAndMetricsAgree runs one request mix — hits, misses, a
// deduplicated batch, a detail ranking, a malformed request, a measurement
// report — and then reads /stats, /metrics and /healthz back to back: they
// render the same atomics, so the ledger on /stats must be the sum of the
// per-op series on /metrics, and every other figure must reconcile exactly.
func TestStatsAndMetricsAgree(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	for i := 0; i < 3; i++ {
		for _, op := range []Op{OpGEMM, OpSYRK, OpSYR2K} {
			if _, err := client.Predict(bg, PredictRequest{M: 96, K: 64, N: 96, Op: op.String()}); err != nil {
				t.Fatal(err)
			}
		}
	}
	batch := requests(OpSYR2K, []sampling.Shape{{M: 50, K: 50, N: 50}, {M: 50, K: 50, N: 50}, {M: 60, K: 60, N: 60}})
	if _, err := client.PredictBatch(bg, batch); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictDetail(bg, PredictRequest{M: 200, K: 100, N: 200, Op: "syrk"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Predict(bg, PredictRequest{M: -1, K: 1, N: 1}); err == nil {
		t.Fatal("malformed request accepted")
	}
	if _, err := client.ReportMeasured(bg, []MeasuredRecord{{PredictRequest: PredictRequest{M: 96, K: 64, N: 96}, Threads: 2, MeasuredNs: 1000}}); err != nil {
		t.Fatal(err)
	}

	get := func(path string, out any) string {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if out != nil {
			if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
				t.Fatal(err)
			}
		}
		return rec.Body.String()
	}
	var stats StatsResponse
	get("/stats", &stats)
	text := get("/metrics", nil)
	var health HealthResponse
	get("/healthz", &health)

	eng := stats.Engine
	if eng.Predictions != 13 {
		t.Fatalf("request mix booked as %+v, want 13 predictions", eng)
	}
	var hits, misses, evalCount, evalSum float64
	for _, op := range []Op{OpGEMM, OpSYRK, OpSYR2K} {
		lbl := `{op="` + op.String() + `"}`
		h := metricValue(t, text, "adsala_serve_cache_hits_total"+lbl)
		m := metricValue(t, text, "adsala_serve_cache_misses_total"+lbl)
		if d := metricValue(t, text, "adsala_serve_decisions_total"+lbl); d != h+m || d == 0 {
			t.Errorf("%s: %v decisions, %v hits + %v misses; every op had traffic", op, d, h, m)
		}
		hits += h
		misses += m
		evalCount += metricValue(t, text, "adsala_serve_decision_latency_seconds_count"+lbl)
		evalSum += metricValue(t, text, "adsala_serve_decision_latency_seconds_sum"+lbl)
	}
	if hits != float64(eng.CacheHits) || misses != float64(eng.CacheMisses) {
		t.Errorf("/metrics per-op rows sum to %v hits / %v misses, /stats says %d / %d", hits, misses, eng.CacheHits, eng.CacheMisses)
	}
	if got := metricValue(t, text, "adsala_serve_fallbacks_total"); got != float64(eng.Fallbacks) {
		t.Errorf("adsala_serve_fallbacks_total = %v, /stats says %d", got, eng.Fallbacks)
	}
	if got := metricValue(t, text, "adsala_serve_artefact_generation"); got != float64(health.Generation) {
		t.Errorf("adsala_serve_artefact_generation = %v, /healthz says %d", got, health.Generation)
	}
	// Every miss that was not a fallback ranked once, in measurable time.
	if want := float64(eng.CacheMisses - eng.Fallbacks); evalCount != want || evalSum <= 0 {
		t.Errorf("decision latency histograms hold %v rankings over %vs, want %v rankings over a positive time", evalCount, evalSum, want)
	}
	for _, route := range []string{"predict", "batch", "measured"} {
		lbl := `route="` + route + `"}`
		ok := metricValue(t, text, `adsala_http_requests_total{result="ok",`+lbl)
		bad := metricValue(t, text, `adsala_http_requests_total{result="error",`+lbl)
		if n := metricValue(t, text, `adsala_http_request_seconds_count{`+lbl); ok+bad != n || n == 0 {
			t.Errorf("route %s: ok %v + error %v, latency histogram counts %v requests", route, ok, bad, n)
		}
	}
	if ok, bad := metricValue(t, text, `adsala_http_requests_total{result="ok",route="predict"}`), metricValue(t, text, `adsala_http_requests_total{result="error",route="predict"}`); ok != 10 || bad != 1 {
		t.Errorf("predict route = %v ok + %v error, want 11 requests with 1 error", ok, bad)
	}
}
