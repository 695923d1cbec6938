package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestDaemonTraceCapture pins the -trace wiring end to end in-process: the
// daemon records its decisions, exposes the adsala_trace_* metrics on
// /metrics, and the closed capture replays against the serving artefact
// with exact decision agreement.
func TestDaemonTraceCapture(t *testing.T) {
	path := savedLibrary(t)
	prefix := filepath.Join(t.TempDir(), "cap")
	var out bytes.Buffer
	cfg, err := parseFlags([]string{
		"-lib", path, "-trace", prefix, "-trace-max-mb", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.tracePrefix != prefix || cfg.traceMaxMB != 4 {
		t.Fatalf("trace flags parsed wrong: %+v", cfg)
	}
	srv, err := newServer(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "flight recorder capturing") {
		t.Errorf("recorder start not reported: %q", out.String())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Real traffic: two distinct shapes, one repeated (a cache hit).
	for _, q := range []string{
		"/predict?m=256&k=1024&n=256",
		"/predict?m=256&k=1024&n=256",
		"/predict?m=512&k=512&n=512",
	} {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d", q, resp.StatusCode)
		}
	}

	// The recorder's metrics are registered and exposed.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"adsala_trace_records_total",
		"adsala_trace_dropped_total",
		"adsala_trace_bytes_written",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metrics lacks %s", name)
		}
	}

	// Close the capture the way run() does after shutdown, then replay it
	// against the recording artefact: agreement must be exact.
	rec := srv.Engine().Recorder()
	if rec == nil {
		t.Fatal("no recorder attached")
	}
	srv.Engine().SetRecorder(nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records", rec.Dropped())
	}

	files, err := trace.Files(prefix)
	if err != nil || len(files) == 0 {
		t.Fatalf("trace files: %v, %v", files, err)
	}
	lib, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(lib, files, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions != 3 {
		t.Errorf("replayed %d serving decisions, want 3", rep.Decisions)
	}
	if rep.Agreement != 1.0 {
		t.Errorf("agreement %v, want 1.0", rep.Agreement)
	}
	if rep.Records != 3 || rep.WarmupSkipped != 0 {
		t.Errorf("capture holds %d records (%d flagged warm-up), want the 3 requests and no flagged record",
			rep.Records, rep.WarmupSkipped)
	}
}

// TestDaemonTraceLargestDimension pins the flight recorder at the edge of
// the wire's range: a decision at m = math.MaxInt32 is captured with that m
// and replays to the decision the daemon answered, while m = math.MaxInt32+1
// is refused before anything is decided or recorded.
func TestDaemonTraceLargestDimension(t *testing.T) {
	path := savedLibrary(t)
	prefix := filepath.Join(t.TempDir(), "cap")
	cfg, err := parseFlags([]string{"-lib", path, "-trace", prefix}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) (int, serve.PredictResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr serve.PredictResponse
		_ = json.NewDecoder(resp.Body).Decode(&pr)
		return resp.StatusCode, pr
	}
	if code, _ := post(`{"m":2147483648,"k":64,"n":64}`); code != http.StatusBadRequest {
		t.Fatalf("m = math.MaxInt32+1: HTTP %d, want 400", code)
	}
	code, answer := post(`{"m":2147483647,"k":64,"n":64}`)
	if code != http.StatusOK {
		t.Fatalf("m = math.MaxInt32: HTTP %d, want 200", code)
	}

	rec := srv.Engine().Recorder()
	srv.Engine().SetRecorder(nil)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := trace.Files(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Record
	if _, err := trace.ScanFiles(files, func(r *trace.Record) error {
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].M != math.MaxInt32 || int(got[0].Threads) != answer.Threads {
		t.Fatalf("capture %+v, want one decision at m = %d answering %d threads", got, math.MaxInt32, answer.Threads)
	}
	lib, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay.Run(lib, files, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decisions != 1 || rep.Agreement != 1.0 {
		t.Errorf("replay: %d decisions at agreement %v, want 1 at 1.0", rep.Decisions, rep.Agreement)
	}
}
