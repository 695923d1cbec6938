package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(NewEngine(lib(t), Options{CacheSize: 256, Shards: 8}))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestServerPredictRoundTrip(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)

	want := srv.Engine().Library().OptimalThreadsOp(OpGEMM, 512, 512, 512)
	got, err := client.Predict(bg, PredictRequest{M: 512, K: 512, N: 512})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("client answer %d, library %d", got, want)
	}

	// GET with query parameters answers identically.
	resp, err := http.Get(ts.URL + "/predict?m=512&k=512&n=512")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Threads != want || pr.M != 512 {
		t.Errorf("GET answer %+v, want threads %d", pr, want)
	}

	// Detail mode carries the full ranking.
	detail, err := client.PredictDetail(bg, PredictRequest{M: 64, K: 2048, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(detail.Candidates) == 0 || len(detail.PredictedMicros) != len(detail.Candidates) {
		t.Fatalf("detail ranking missing: %+v", detail)
	}
}

func TestServerBatchRoundTrip(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	shapes := mixedShapes(20)
	got, err := client.PredictBatch(bg, requests(OpGEMM, shapes))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shapes {
		want := srv.Engine().Library().OptimalThreadsOp(OpGEMM, sh.M, sh.K, sh.N)
		if got[i] != want {
			t.Errorf("shape %v: batch %d, library %d", sh, got[i], want)
		}
	}
}

func TestServerStatsAndHealth(t *testing.T) {
	_, ts := testServer(t)
	client := NewClient(ts.URL, nil)

	h, err := client.Healthz(bg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Platform != "Gadi" || h.Model == "" {
		t.Errorf("healthz = %+v", h)
	}

	if _, err := client.Predict(bg, PredictRequest{M: 100, K: 100, N: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Predict(bg, PredictRequest{M: 100, K: 100, N: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PredictBatch(bg, requests(OpGEMM, mixedShapes(5))); err != nil {
		t.Fatal(err)
	}

	st, err := client.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Platform != "Gadi" {
		t.Errorf("stats platform %q", st.Platform)
	}
	if st.Engine.Predictions < 7 || st.Engine.CacheHits < 1 {
		t.Errorf("engine stats %+v", st.Engine)
	}
	text := scrapeMetrics(t, ts.URL)
	if n, sum := metricValue(t, text, `adsala_http_request_seconds_count{route="predict"}`), metricValue(t, text, `adsala_http_request_seconds_sum{route="predict"}`); n != 2 || sum <= 0 {
		t.Errorf("predict route: %v requests over %vs, want 2 over a positive time", n, sum)
	}
	if n := metricValue(t, text, `adsala_http_request_seconds_count{route="batch"}`); n != 1 {
		t.Errorf("batch route: %v requests, want 1", n)
	}
}

// TestStatsKeyTree pins the /stats surface to the facts nothing else
// renders — the artefact being served and the decision ledger — so that no
// twin of a /metrics series can grow back onto it.
func TestStatsKeyTree(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	for i := 0; i < 2; i++ {
		if _, err := client.Predict(bg, PredictRequest{M: 100, K: 100, N: 100}); err != nil {
			t.Fatal(err)
		}
	}
	// A fallback, so the omitempty ledger field is present too.
	expired, cancel := context.WithCancel(bg)
	cancel()
	if _, fb := srv.Engine().PredictOpCtx(expired, OpGEMM, 300, 300, 300); !fb {
		t.Fatal("an expired context did not fall back")
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		if !ok || prefix == "models." {
			return // models is keyed by the artefact's ops
		}
		for k, sub := range obj {
			keys = append(keys, prefix+k)
			walk(prefix+k+".", sub)
		}
	}
	walk("", body)
	slices.Sort(keys)
	want := []string{
		"engine", "engine.cache_hits", "engine.cache_misses", "engine.fallbacks",
		"engine.hit_rate", "engine.predictions", "model", "models", "platform",
	}
	if !slices.Equal(keys, want) {
		t.Errorf("/stats keys = %v, want exactly %v", keys, want)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := testServer(t)

	for _, tc := range []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"predict missing params", func() (*http.Response, error) {
			return http.Get(ts.URL + "/predict")
		}, http.StatusBadRequest},
		{"predict bad dims", func() (*http.Response, error) {
			return http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"m":0,"k":5,"n":5}`))
		}, http.StatusBadRequest},
		{"predict bad json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{`))
		}, http.StatusBadRequest},
		{"predict bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/predict", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"batch get", func() (*http.Response, error) {
			return http.Get(ts.URL + "/batch")
		}, http.StatusMethodNotAllowed},
		{"batch empty", func() (*http.Response, error) {
			return http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"shapes":[]}`))
		}, http.StatusBadRequest},
		{"batch bad shape", func() (*http.Response, error) {
			return http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"shapes":[{"m":1,"k":1,"n":-2}]}`))
		}, http.StatusBadRequest},
		// Dimensions past math.MaxInt32, which the flight recorder stores
		// as int32, are refused on every platform.
		{"predict get beyond int32", func() (*http.Response, error) {
			return http.Get(ts.URL + "/predict?m=2147483648&k=64&n=64")
		}, http.StatusBadRequest},
		{"predict post beyond int32", func() (*http.Response, error) {
			return http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"m":64,"k":2147483648,"n":64}`))
		}, http.StatusBadRequest},
		{"predict post 19 digits", func() (*http.Response, error) {
			return http.Post(ts.URL+"/predict", "application/json", strings.NewReader(`{"m":64,"k":64,"n":9223372036854775807}`))
		}, http.StatusBadRequest},
		{"batch slot beyond int32", func() (*http.Response, error) {
			return http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"shapes":[{"m":64,"k":64,"n":64},{"m":64,"k":64,"n":2147483648,"op":"syrk"}]}`))
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
			t.Errorf("%s: error body not decodable (%v)", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Client surfaces server-side errors.
	client := NewClient(ts.URL, nil)
	if _, err := client.Predict(bg, PredictRequest{M: -1, K: 1, N: 1}); err == nil {
		t.Error("client.Predict(-1,...) should error")
	}
	if _, err := client.PredictBatch(bg, nil); err == nil {
		t.Error("client.PredictBatch(bg, nil) should error")
	}
}

// TestServerBodyBounds pins the request-body bounds: each route reads its
// whole body up to a constant sized from the route's own limit and answers
// 413 one byte past it, and the largest batch the validation accepts — 16384
// shapes, every dimension math.MaxInt32, the longest op name — still fits.
func TestServerBodyBounds(t *testing.T) {
	_, ts := testServer(t)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	maxInt := strconv.Itoa(math.MaxInt32)
	shape := `{"m":` + maxInt + `,"k":` + maxInt + `,"n":` + maxInt + `,"op":"syr2k"}`
	batch := `{"shapes":[` + strings.Repeat(shape+",", MaxBatchShapes-1) + shape + `]}`
	if got := post("/batch", batch); got != http.StatusOK {
		t.Errorf("maximal legal batch (%d bytes): HTTP %d, want 200", len(batch), got)
	}
	record := shape[:len(shape)-1] + `,"threads":` + maxInt + `,"measured_ns":9223372036854775807}`
	records := `{"records":[` + strings.Repeat(record+",", MaxMeasuredRecords-1) + record + `]}`
	if got := post("/measured", records); got != http.StatusOK {
		t.Errorf("maximal legal report (%d bytes): HTTP %d, want 200", len(records), got)
	}
	// The whole body is read before it is decoded, so a valid request
	// followed by padding past the bound is refused too.
	padded := `{"m":64,"k":64,"n":64}` + strings.Repeat(" ", maxPredictBody)
	if got := post("/predict", padded); got != http.StatusRequestEntityTooLarge {
		t.Errorf("/predict with a valid value padded past the bound: HTTP %d, want 413", got)
	}

	// All-blank bodies, so the decoder must read every byte looking for a
	// value: at the bound that is a malformed body, past it a refused one.
	for _, tc := range []struct {
		path  string
		bound int
	}{
		{"/predict", maxPredictBody},
		{"/batch", maxBatchBody},
		{"/measured", maxMeasuredBody},
	} {
		if got := post(tc.path, strings.Repeat(" ", tc.bound)); got != http.StatusBadRequest {
			t.Errorf("%s with a body at the bound: HTTP %d, want 400", tc.path, got)
		}
		if got := post(tc.path, strings.Repeat(" ", tc.bound+1)); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a body one byte past the bound: HTTP %d, want 413", tc.path, got)
		}
	}
}
