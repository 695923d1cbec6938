package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// modellessLibrary returns an artefact with candidates but no trained
// model — the degraded-mode input (e.g. a freshly provisioned node whose
// training job has not finished).
func modellessLibrary() *core.Library {
	return &core.Library{Platform: "degraded", Candidates: []int{1, 2, 4, 8, 16}}
}

// scrapeMetrics fetches the Prometheus exposition of a test server.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing the test after two seconds — the leak check of the
// overload acceptance criterion.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d still running, want <= %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOverloadSheds pins the admission gate under saturation: with both
// in-flight slots held busy, 4×MaxInFlight concurrent /predict requests
// must all shed with 429 + Retry-After within the bounded queue wait, the
// server's shed counter must agree, service must resume the moment the
// slots free, and no goroutines may leak.
func TestOverloadSheds(t *testing.T) {
	eng := NewEngine(lib(t), Options{CacheSize: 256, Shards: 8})
	srv := NewServer(eng, WithLimits(Limits{MaxInFlight: 2})) // and a queue of 2
	srv.limit.wait = 30 * time.Millisecond
	// A blocking route through the same admit/release gate as /predict,
	// so the test can hold both in-flight slots deterministically.
	gate := make(chan struct{})
	admitted := make(chan struct{}, 2)
	srv.mux.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
		if !srv.admit(w, r) {
			return
		}
		defer srv.release()
		admitted <- struct{}{}
		<-gate
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := runtime.NumGoroutine()
	var holders sync.WaitGroup
	for i := 0; i < 2; i++ {
		holders.Add(1)
		go func() {
			defer holders.Done()
			resp, err := http.Get(ts.URL + "/hold")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Errorf("holder answered HTTP %d", resp.StatusCode)
			}
		}()
	}
	<-admitted
	<-admitted // both slots now busy

	const clients = 8 // 4 × MaxInFlight
	var (
		wg   sync.WaitGroup
		shed atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Post(ts.URL+"/predict", "application/json",
				strings.NewReader(`{"m":512,"k":512,"n":512}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			// Bounded latency: immediate shed or at most the queue wait.
			if d := time.Since(start); d > time.Second {
				t.Errorf("shed took %v: overload latency is unbounded", d)
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("saturated /predict answered HTTP %d, want 429", resp.StatusCode)
				io.Copy(io.Discard, resp.Body)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
			var sr shedResponse
			if json.NewDecoder(resp.Body).Decode(&sr) != nil || sr.RetryAfterMS < 1 {
				t.Error("429 body is not a shed response")
			}
			shed.Add(1)
		}()
	}
	wg.Wait()

	if shed.Load() != clients {
		t.Errorf("%d of %d saturated requests shed", shed.Load(), clients)
	}
	if got := srv.shed.Load(); got != shed.Load() {
		t.Errorf("server counted %d sheds, clients observed %d", got, shed.Load())
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "adsala_serve_shed_total") {
		t.Error("shed counter missing from /metrics")
	}

	// Release the slots: service resumes with correct answers.
	close(gate)
	holders.Wait()
	want := eng.Library().OptimalThreadsOp(OpGEMM, 512, 512, 512)
	resp, err := http.Post(ts.URL+"/predict", "application/json",
		strings.NewReader(`{"m":512,"k":512,"n":512}`))
	if err != nil {
		t.Fatal(err)
	}
	var pr PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || pr.Threads != want {
		t.Errorf("post-overload predict = (%d, %+v, %v), want HTTP 200 with %d threads",
			resp.StatusCode, pr, err, want)
	}

	// Shed-path goroutines must unwind once idle connections are dropped.
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, before+2)
}

// TestReloadUnderLoad is the acceptance criterion of the hot-reload path:
// sustained traffic while the artefact is swapped twice must see zero
// failed requests (no client retries to mask them), /healthz must report
// the new generation, and the decision cache must warm back up afterwards.
func TestReloadUnderLoad(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 256, Shards: 8})
	srv := NewServer(eng,
		WithReload(ReloadConfig{
			Load:  func() (*core.Library, error) { return l, nil },
			Token: "sesame",
		}),
	)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// No retries: a single failed request fails the test.
	client := NewClient(ts.URL, nil)
	client.attempts = 1
	want := l.OptimalThreadsOp(OpGEMM, 512, 512, 512)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, failed atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if g%2 == 0 {
					got, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512})
					if err != nil || got != want {
						t.Errorf("predict during reload = (%d, %v), want (%d, nil)", got, err, want)
						failed.Add(1)
						return
					}
				} else {
					if _, err := client.PredictBatch(bg, requests(OpGEMM, mixedShapes(4))); err != nil {
						t.Errorf("batch during reload: %v", err)
						failed.Add(1)
						return
					}
				}
				served.Add(1)
			}
		}(g)
	}

	// Two swaps mid-traffic, through the authenticated admin endpoint.
	for swap := 0; swap < 2; swap++ {
		time.Sleep(30 * time.Millisecond)
		h, err := client.Reload(bg, "sesame")
		if err != nil {
			t.Fatalf("swap %d: %v", swap+1, err)
		}
		if h.Generation != int64(swap+1) {
			t.Fatalf("swap %d answered generation %d", swap+1, h.Generation)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 || served.Load() == 0 {
		t.Fatalf("reload under load: %d served, %d failed", served.Load(), failed.Load())
	}
	h, err := client.Healthz(bg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != 2 || h.Status != "ok" {
		t.Errorf("healthz after two reloads = %+v, want generation 2, ok", h)
	}
	// The cache recovers: the swap reset it, and serving refills it.
	if _, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512}); err != nil {
		t.Fatal(err)
	}
	hits0 := eng.Stats().CacheHits
	if _, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512}); err != nil {
		t.Fatal(err)
	}
	if hits := eng.Stats().CacheHits; hits <= hits0 {
		t.Errorf("cache did not recover after reload: hits %d -> %d", hits0, hits)
	}
}

// TestAdminReloadAuth pins the admin endpoint's contract: token required
// (constant-time compare, both header forms), POST only, and the endpoint
// absent entirely when no token is configured.
func TestAdminReloadAuth(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 64, Shards: 2})
	srv := NewServer(eng, WithReload(ReloadConfig{
		Load:  func() (*core.Library, error) { return l, nil },
		Token: "sesame",
	}))
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(token, header string) int {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload", nil)
		if token != "" {
			req.Header.Set(header, token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post("", ""); got != http.StatusUnauthorized {
		t.Errorf("no token: HTTP %d, want 401", got)
	}
	if got := post("wrong", "X-Adsala-Admin-Token"); got != http.StatusUnauthorized {
		t.Errorf("wrong token: HTTP %d, want 401", got)
	}
	if got := post("sesame", "X-Adsala-Admin-Token"); got != http.StatusOK {
		t.Errorf("header token: HTTP %d, want 200", got)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer token: HTTP %d, want 200", resp.StatusCode)
	}
	// GET is not allowed even when authorised.
	getReq, _ := http.NewRequest(http.MethodGet, ts.URL+"/admin/reload", nil)
	getReq.Header.Set("X-Adsala-Admin-Token", "sesame")
	if resp, err := http.DefaultClient.Do(getReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /admin/reload: HTTP %d, want 405", resp.StatusCode)
		}
	}

	// No token configured: the endpoint is not mounted.
	bare := httptest.NewServer(NewServer(NewEngine(l, Options{CacheSize: 64, Shards: 2})))
	defer bare.Close()
	if resp, err := http.Post(bare.URL+"/admin/reload", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unconfigured /admin/reload: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestDegradedFallbackNoModel serves a model-less artefact: every decision
// must come from the deterministic heuristic, be tagged "fallback": true,
// never enter the cache (the model should take over the moment one
// arrives), and advance the fallback counter on /stats and /metrics.
func TestDegradedFallbackNoModel(t *testing.T) {
	eng := NewEngine(modellessLibrary(), Options{CacheSize: 64, Shards: 2})
	srv := NewServer(eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	wantThreads := heuristicChoice(eng.Candidates(), OpGEMM, 512, 512, 512)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/predict", "application/json",
			strings.NewReader(`{"m":512,"k":512,"n":512}`))
		if err != nil {
			t.Fatal(err)
		}
		var pr PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Fallback || pr.Threads != wantThreads {
			t.Fatalf("call %d: %+v, want fallback heuristic answer %d", i, pr, wantThreads)
		}
	}
	st := eng.Stats()
	if st.Fallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2 (fallback decisions must not be cached)", st.Fallbacks)
	}
	if n := metricSum(t, scrapeMetrics(t, ts.URL), "adsala_serve_cache_entries"); n != 0 {
		t.Errorf("cache holds %v entries after fallback-only traffic, want 0", n)
	}

	// Batch: every slot tagged.
	resp, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"shapes":[{"m":64,"k":64,"n":64},{"m":256,"k":256,"n":256}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var br BatchResponse
	err = json.NewDecoder(resp.Body).Decode(&br)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Fallback) != 2 || !br.Fallback[0] || !br.Fallback[1] {
		t.Errorf("batch fallback tags = %v, want both true", br.Fallback)
	}

	// Detail path degrades too: zero scores, heuristic best.
	scores, best, fb := eng.RankOpCtx(bg, OpGEMM, 100, 100, 100)
	if !fb || best != heuristicChoice(eng.Candidates(), OpGEMM, 100, 100, 100) {
		t.Errorf("RankOpCtx = (%d, fallback %v), want tagged heuristic", best, fb)
	}
	for _, s := range scores {
		if s != 0 {
			t.Errorf("RankOpCtx scores = %v, want zeros without a model", scores)
			break
		}
	}

	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "adsala_serve_fallbacks_total") {
		t.Error("adsala_serve_fallbacks_total missing from /metrics")
	}
}

// TestRequestTimeoutFallsBack pins the deadline degradation: a request
// whose budget expired before ranking answers the heuristic (tagged) for a
// cache miss, while cached decisions are still served normally.
func TestRequestTimeoutFallsBack(t *testing.T) {
	eng := NewEngine(lib(t), Options{CacheSize: 64, Shards: 2})
	ctx, cancel := context.WithCancel(bg)
	cancel() // expired before the call — the worst case

	threads, fb := eng.PredictOpCtx(ctx, OpGEMM, 300, 300, 300)
	if !fb || threads != heuristicChoice(eng.Candidates(), OpGEMM, 300, 300, 300) {
		t.Fatalf("expired-ctx miss = (%d, %v), want tagged heuristic", threads, fb)
	}
	if st := eng.Stats(); st.Fallbacks != 1 {
		t.Errorf("fallbacks = %d, want 1", st.Fallbacks)
	}

	// Warm the shape with a live context, then the expired context serves
	// the cached (model) decision — no fallback.
	want, fb := eng.PredictOpCtx(bg, OpGEMM, 300, 300, 300)
	if fb {
		t.Fatal("live-context rank reported fallback")
	}
	got, fb := eng.PredictOpCtx(ctx, OpGEMM, 300, 300, 300)
	if fb || got != want {
		t.Errorf("expired-ctx hit = (%d, %v), want cached (%d, false)", got, fb, want)
	}

	// Over HTTP the -request-timeout budget reaches the engine on every
	// /predict form: with a budget that is gone before the handler gets to
	// the engine, the plain and the ?detail=1 path both answer the tagged
	// heuristic, cache nothing and advance the fallback counter.
	srv := NewServer(eng, WithLimits(Limits{RequestTimeout: time.Nanosecond}))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i, path := range []string{"/predict", "/predict?detail=1"} {
		m := 700 + i // a shape of its own: never cached
		before := eng.Stats().Fallbacks
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(fmt.Sprintf(`{"m":%d,"k":300,"n":300}`, m)))
		if err != nil {
			t.Fatal(err)
		}
		var pr PredictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Fallback || pr.Threads != heuristicChoice(eng.Candidates(), OpGEMM, m, 300, 300) {
			t.Errorf("%s past its deadline = %+v, want the tagged heuristic answer", path, pr)
		}
		if _, ok := eng.CachedChoice(OpGEMM, m, 300, 300); ok {
			t.Errorf("%s cached a fallback decision", path)
		}
		if got := eng.Stats().Fallbacks; got != before+1 {
			t.Errorf("%s: fallbacks %d -> %d, want +1", path, before, got)
		}
	}
	if text := scrapeMetrics(t, ts.URL); !strings.Contains(text, "adsala_serve_fallbacks_total 3") {
		t.Error("adsala_serve_fallbacks_total is not 3 on /metrics")
	}
}

// TestPanicRecoveryMiddleware pins the middleware contract: a handler panic
// answers 500 JSON and advances the panics counter instead of killing the
// connection silently; http.ErrAbortHandler still severs the connection.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := NewServer(NewEngine(lib(t), Options{CacheSize: 64, Shards: 2}))
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	srv.mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler: HTTP %d, want 500", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || !strings.Contains(apiErr.Error, "kaboom") {
		t.Errorf("500 body = (%+v, %v), want JSON carrying the panic", apiErr, err)
	}
	if got := srv.panics.Load(); got != 1 {
		t.Errorf("panics counter = %d, want 1", got)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "adsala_serve_panics_total") {
		t.Error("panic counter missing from /metrics")
	}

	// ErrAbortHandler is net/http's sanctioned abort: connection severed,
	// not converted to a 500, and not counted as a panic.
	if _, err := http.Get(ts.URL + "/abort"); err == nil {
		t.Error("aborted connection answered successfully")
	}
	if got := srv.panics.Load(); got != 1 {
		t.Errorf("ErrAbortHandler counted as a panic (counter %d)", got)
	}
}

// TestClientSurvivesFaultyServer drives the client through the fault
// harness: injected 5xx answers, dropped connections and truncated bodies
// must all be absorbed by the retry schedule — every request eventually
// succeeds with the right answer, and the schedule must actually have
// fired (a pass without faults would prove nothing).
func TestClientSurvivesFaultyServer(t *testing.T) {
	eng := NewEngine(lib(t), Options{CacheSize: 256, Shards: 8})
	inner := NewServer(eng)
	var st faults.Stats
	sched := faults.NewSeeded(11, faults.Plan{
		ErrorP:    0.2,
		Status:    http.StatusServiceUnavailable,
		DropP:     0.15,
		TruncateP: 0.15,
	})
	ts := httptest.NewServer(faults.Handler(inner, sched, &st))
	defer ts.Close()

	client := fastClient(ts.URL)
	client.attempts = 8
	client.maxBackoff = 4 * time.Millisecond
	want := eng.Library().OptimalThreadsOp(OpGEMM, 512, 512, 512)
	for i := 0; i < 30; i++ {
		got, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512})
		if err != nil {
			t.Fatalf("request %d failed through retries: %v", i, err)
		}
		if got != want {
			t.Fatalf("request %d answered %d, want %d", i, got, want)
		}
	}
	if !st.Fired() {
		t.Fatal("fault schedule never fired: the test proved nothing")
	}
	if st.Errors.Load() == 0 || st.Drops.Load() == 0 || st.Truncates.Load() == 0 {
		t.Errorf("fault mix incomplete: %d errors, %d drops, %d truncates",
			st.Errors.Load(), st.Drops.Load(), st.Truncates.Load())
	}
}

// TestClientSurvivesFaultyTransport injects the faults on the client's side
// of the wire: transport errors and drops that never reach the server, and
// bodies torn after the server answered. Each must be retried like its
// server-side twin, and the schedule must have fired every kind.
func TestClientSurvivesFaultyTransport(t *testing.T) {
	eng := NewEngine(lib(t), Options{CacheSize: 256, Shards: 8})
	ts := httptest.NewServer(NewServer(eng))
	defer ts.Close()
	var st faults.Stats
	sched := faults.NewSeeded(12, faults.Plan{ErrorP: 0.2, DropP: 0.15, TruncateP: 0.15})
	client := NewClient(ts.URL, &http.Client{Transport: faults.Transport(nil, sched, &st)})
	client.attempts = 8
	client.backoff, client.maxBackoff = time.Millisecond, 4*time.Millisecond

	want := eng.Library().OptimalThreadsOp(OpGEMM, 512, 512, 512)
	for i := 0; i < 30; i++ {
		got, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512})
		if err != nil {
			t.Fatalf("request %d failed through retries: %v", i, err)
		}
		if got != want {
			t.Fatalf("request %d answered %d, want %d", i, got, want)
		}
	}
	if st.Errors.Load() == 0 || st.Drops.Load() == 0 || st.Truncates.Load() == 0 {
		t.Errorf("fault mix incomplete: %d errors, %d drops, %d truncates",
			st.Errors.Load(), st.Drops.Load(), st.Truncates.Load())
	}
}

// TestClientFatalOn4xx pins the fatal classification: a 400 must surface
// immediately (exactly one attempt), while 429 and 5xx retry.
func TestClientFatalOn4xx(t *testing.T) {
	var calls atomic.Int64
	status := make(chan int, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, <-status, "injected")
	}))
	defer ts.Close()
	client := fastClient(ts.URL)

	status <- http.StatusBadRequest
	_, err := client.Predict(bg, PredictRequest{M: 1, K: 1, N: 1})
	if err == nil || calls.Load() != 1 {
		t.Fatalf("400: err=%v after %d calls, want immediate failure", err, calls.Load())
	}
	var sErr *StatusError
	if !strings.Contains(fmt.Sprint(err), "HTTP 400") {
		t.Errorf("error does not name the status: %v", err)
	}

	// 429 then 200-shaped failure path: all three attempts consumed.
	calls.Store(0)
	for i := 0; i < 3; i++ {
		status <- http.StatusTooManyRequests
	}
	_, err = client.Predict(bg, PredictRequest{M: 1, K: 1, N: 1})
	if err == nil || calls.Load() != 3 {
		t.Fatalf("429: err=%v after %d calls, want 3 retried attempts", err, calls.Load())
	}
	if ok := errorAs(err, &sErr); !ok || sErr.Status != http.StatusTooManyRequests {
		t.Errorf("429 not surfaced as StatusError: %v", err)
	}
}

// errorAs is errors.As without importing errors twice in this file's scope.
func errorAs(err error, target *(*StatusError)) bool {
	for err != nil {
		if se, ok := err.(*StatusError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
