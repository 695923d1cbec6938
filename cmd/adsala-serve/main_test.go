package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	adsala "repro"
	"repro/internal/serve"
)

var (
	libOnce sync.Once
	libPath string
	libErr  error
)

// savedLibrary trains one quick library and saves it for the daemon tests.
// predictGEMM asks the server's engine for one GEMM decision.
func predictGEMM(srv *serve.Server, m, k, n int) int {
	threads, _ := srv.Engine().PredictOpCtx(context.Background(), serve.OpGEMM, m, k, n)
	return threads
}

func savedLibrary(t *testing.T) string {
	t.Helper()
	libOnce.Do(func() {
		// Not t.TempDir(): the artefact must outlive the first test that
		// happens to trigger training.
		dir, err := os.MkdirTemp("", "adsala-serve-test")
		if err != nil {
			libErr = err
			return
		}
		lib, _, err := adsala.Train(adsala.TrainOptions{Platform: "Gadi", Shapes: 80, Quick: true, Seed: 3})
		if err != nil {
			libErr = err
			return
		}
		libPath = filepath.Join(dir, "lib.json")
		libErr = lib.Save(libPath)
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return libPath
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-lib", "x.json", "-addr", ":9090", "-cache", "100", "-shards", "3"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.libPath != "x.json" || cfg.addr != ":9090" || cfg.cacheSize != 100 || cfg.shards != 3 {
		t.Errorf("parsed %+v", cfg)
	}

	cfg, err = parseFlags(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.libPath != "adsala.json" || cfg.addr != ":8080" || cfg.cacheSize != 4096 {
		t.Errorf("defaults %+v", cfg)
	}

	for _, bad := range [][]string{
		{"-no-such-flag"},
		{"-cache", "abc"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("parseFlags(%v) should error", bad)
		}
	}

	// The cache pre-population flags, the batch fan-out knob and the reload
	// signal choice are gone: a command line that still carries one fails
	// loudly, naming it, instead of booting silently without it.
	for _, retired := range [][]string{
		{"-warmup", "256"},
		{"-warmup-cap", "100"},
		{"-warmup-seed", "1"},
		{"-cache-snapshot", "f"},
		{"-workers", "4"},
		{"-reload-on", "SIGHUP"},
	} {
		_, err := parseFlags(append([]string{"-lib", "x.json"}, retired...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), retired[0]) {
			t.Errorf("parseFlags(%v) = %v, want an error naming %s", retired, err, retired[0])
		}
	}
}

func TestHelpPrintsUsage(t *testing.T) {
	var usage bytes.Buffer
	if _, err := parseFlags([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parseFlags(-h) = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(usage.String(), "-lib") || !strings.Contains(usage.String(), "-request-timeout") {
		t.Errorf("usage text missing flags:\n%s", usage.String())
	}
	// run treats a help request as success.
	usage.Reset()
	if err := run([]string{"--help"}, &usage); err != nil {
		t.Errorf("run(--help) = %v, want nil", err)
	}
	if !strings.Contains(usage.String(), "-addr") {
		t.Errorf("run(--help) printed no usage:\n%s", usage.String())
	}
}

func TestNewServerBadLibrary(t *testing.T) {
	if _, err := newServer(config{libPath: "/does/not/exist.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing library file should error")
	}
}

// TestReloadFlags pins the resilience flag surface. SIGHUP always reloads,
// so there is no flag to choose the signal.
func TestReloadFlags(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-lib", "x.json", "-admin-token", "s3cret",
		"-max-inflight", "32", "-request-timeout", "500ms",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.adminToken != "s3cret" || cfg.maxInflight != 32 ||
		cfg.reqTimeout != 500*time.Millisecond {
		t.Errorf("parsed %+v", cfg)
	}
}

// TestDaemonAdminReload boots the daemon with an admin token, swaps the
// artefact through POST /admin/reload, and checks the generation advances
// while the server keeps answering.
func TestDaemonAdminReload(t *testing.T) {
	// A private copy: the test rewrites the artefact the daemon reloads.
	blob, err := os.ReadFile(savedLibrary(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg, err := parseFlags([]string{"-lib", path, "-admin-token", "sesame"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := serve.NewClient(ts.URL, nil)

	if _, err := client.Predict(context.Background(), serve.PredictRequest{M: 96, K: 96, N: 96}); err != nil {
		t.Fatal(err)
	}
	h, err := client.Reload(context.Background(), "sesame")
	if err != nil {
		t.Fatal(err)
	}
	if h.Generation != 1 {
		t.Errorf("generation after reload = %d, want 1", h.Generation)
	}
	// Wrong token is rejected.
	if _, err := client.Reload(context.Background(), "wrong"); err == nil {
		t.Error("wrong admin token accepted")
	}
	// Still serving after the swap.
	if _, err := client.Predict(context.Background(), serve.PredictRequest{M: 96, K: 96, N: 96}); err != nil {
		t.Errorf("predict after reload: %v", err)
	}
	if h, err = client.Healthz(context.Background()); err != nil || h.Generation != 1 || h.Status != "ok" {
		t.Errorf("healthz after reload = (%+v, %v)", h, err)
	}

	// An artefact that decodes but would panic inside the ranking path (here
	// a candidate of zero threads) is refused by the load, so the reload
	// fails and the previous artefact keeps answering, same generation.
	before, err := client.Predict(context.Background(), serve.PredictRequest{M: 300, K: 200, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(blob, []byte(`"candidates": [`), []byte(`"candidates": [0,`), 1)
	if bytes.Equal(bad, blob) {
		t.Fatal("artefact has no candidates array to corrupt")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Reload(context.Background(), "sesame"); err == nil {
		t.Error("reload of an artefact with a zero-thread candidate succeeded")
	}
	if after, err := client.Predict(context.Background(), serve.PredictRequest{M: 300, K: 200, N: 100}); err != nil || after != before {
		t.Errorf("predict after refused reload = (%d, %v), want %d", after, err, before)
	}
	if miss, err := client.Predict(context.Background(), serve.PredictRequest{M: 301, K: 200, N: 100}); err != nil || miss < 1 {
		t.Errorf("cache miss after refused reload = (%d, %v)", miss, err)
	}
	if h, err = client.Healthz(context.Background()); err != nil || h.Generation != 1 || h.Status != "ok" {
		t.Errorf("healthz after refused reload = (%+v, %v)", h, err)
	}
}

// TestDaemonRanksArtefactAcrossReload pins that the daemon answers for
// callers it cannot see: a shape whose optimum exceeds this host's
// GOMAXPROCS gets the artefact-wide answer at start-up and the same answer
// after /admin/reload of the same file (both engines come from one load
// closure; neither is narrowed to what this host could run).
func TestDaemonRanksArtefactAcrossReload(t *testing.T) {
	path := savedLibrary(t)
	lib, err := adsala.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	host := runtime.GOMAXPROCS(0)
	var shape [3]int
	want := 0
	for _, sh := range [][3]int{{2048, 2048, 2048}, {4096, 4096, 4096}, {8000, 8000, 8000}} {
		if got := lib.OptimalThreadsOp(adsala.OpGEMM, sh[0], sh[1], sh[2]); got > host {
			shape, want = sh, got
			break
		}
	}
	if want == 0 {
		t.Skipf("no probe shape's optimum exceeds GOMAXPROCS=%d", host)
	}
	var out bytes.Buffer
	cfg, err := parseFlags([]string{"-lib", path, "-admin-token", "sesame"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := serve.NewClient(ts.URL, nil)
	req := serve.PredictRequest{M: shape[0], K: shape[1], N: shape[2]}

	before, err := client.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if before != want {
		t.Errorf("daemon chose %d for %v at start-up, artefact-wide optimum %d (GOMAXPROCS=%d)", before, shape, want, host)
	}
	if h, err := client.Reload(context.Background(), "sesame"); err != nil || h.Generation != 1 {
		t.Fatalf("reload = (%+v, %v)", h, err)
	}
	after, err := client.Predict(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("daemon chose %d for %v after reloading the same file, %d before", after, shape, before)
	}
	if got, want := srv.Engine().Candidates(), lib.Candidates(); !slices.Equal(got, want) {
		t.Errorf("daemon ranks %v, artefact carries %v", got, want)
	}
}

// TestDaemonRoundTrip is the end-to-end integration test of the acceptance
// criteria: the daemon loads a saved library and answers /predict, /batch,
// /stats and /healthz over HTTP.
func TestDaemonRoundTrip(t *testing.T) {
	path := savedLibrary(t)
	var out bytes.Buffer
	cfg, err := parseFlags([]string{"-lib", path, "-cache", "256", "-shards", "8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cache 256 entries / 8 shards") {
		t.Errorf("load not reported: %q", out.String())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := serve.NewClient(ts.URL, nil)

	lib, err := adsala.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// /healthz
	h, err := client.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Platform != "Gadi" {
		t.Errorf("healthz %+v", h)
	}

	// /predict agrees with the loaded library.
	threads, err := client.Predict(context.Background(), serve.PredictRequest{M: 256, K: 1024, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	if want := lib.OptimalThreadsOp(adsala.OpGEMM, 256, 1024, 256); threads != want {
		t.Errorf("daemon chose %d, library %d", threads, want)
	}

	// /batch via raw JSON (wire-format check).
	body := `{"shapes":[{"m":64,"k":64,"n":64},{"m":2048,"k":2048,"n":2048}]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch HTTP %d", resp.StatusCode)
	}
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Threads) != 2 {
		t.Fatalf("batch answered %d decisions", len(br.Threads))
	}
	if want := lib.OptimalThreadsOp(adsala.OpGEMM, 2048, 2048, 2048); br.Threads[1] != want {
		t.Errorf("batch chose %d for 2048^3, library %d", br.Threads[1], want)
	}

	// /stats reflects the traffic, and nothing but the traffic filled the
	// cache.
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Predictions != 3 { // predict + batch of 2
		t.Errorf("predictions %d, want 3", st.Engine.Predictions)
	}
	// The rest of the counting is on /metrics.
	text := scrape(t, ts.URL)
	if n := sumSamples(t, text, "adsala_serve_cache_entries{"); n != 3 {
		t.Errorf("cache holds %v decisions after three distinct shapes, want 3", n)
	}
	for _, route := range []string{"predict", "batch"} {
		if n := sumSamples(t, text, `adsala_http_request_seconds_count{route="`+route+`"}`); n != 1 {
			t.Errorf("%s route served %v requests, want 1", route, n)
		}
	}
}

// scrape fetches a daemon's /metrics exposition.
func scrape(t *testing.T, base string) string {
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

// sumSamples sums the values of every exposition line starting with prefix.
func sumSamples(t *testing.T, text, prefix string) float64 {
	t.Helper()
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		total += v
	}
	return total
}
