package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/logx"
	"repro/internal/serve"
)

// TestDaemonDriftMonitoring pins the -drift-window wiring end to end
// in-process: the daemon scores measurements reported through POST
// /measured, serves the /drift report, exposes the adsala_drift_* and
// adsala_kernel_measured_seconds families on /metrics, and flips the
// /healthz body to degraded (still HTTP 200) when the stream drifts past
// the threshold.
func TestDaemonDriftMonitoring(t *testing.T) {
	path := savedLibrary(t)
	var out bytes.Buffer
	cfg, err := parseFlags([]string{
		"-lib", path, "-drift-window", "1m", "-drift-threshold", "0.5", "-drift-min-samples", "4",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.driftWindow != time.Minute || cfg.driftThreshold != 0.5 || cfg.driftMinSamples != 4 {
		t.Fatalf("drift flags parsed wrong: %+v", cfg)
	}
	srv, err := newServer(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "drift monitor on") {
		t.Errorf("drift start not reported: %q", out.String())
	}
	if srv.Engine().DriftMonitor() == nil {
		t.Fatal("no drift monitor attached")
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := serve.NewClient(ts.URL, nil)

	// Report measurements 4x slower than the model's estimate: residual_log2
	// is -2 per record, past the 0.5 threshold once 4 samples land.
	lib := srv.Engine().Library()
	threads := lib.OptimalThreadsOp(serve.OpGEMM, 256, 256, 256)
	ns := int64(lib.PredictOpSeconds(serve.OpGEMM, 256, 256, 256, threads) * 4e9)
	if ns <= 0 {
		ns = 4
	}
	records := make([]serve.MeasuredRecord, 8)
	for i := range records {
		records[i] = serve.MeasuredRecord{PredictRequest: serve.PredictRequest{M: 256, K: 256, N: 256, Op: "gemm"}, Threads: threads, MeasuredNs: ns}
	}
	accepted, err := cl.ReportMeasured(context.Background(), records)
	if err != nil || accepted != len(records) {
		t.Fatalf("ReportMeasured = %d, %v", accepted, err)
	}

	rep, err := cl.Drift(context.Background())
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if rep.Observed != int64(len(records)) || !rep.Degraded {
		t.Fatalf("drift report observed=%d degraded=%v: %+v", rep.Observed, rep.Degraded, rep)
	}

	// Degraded, not down.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: HTTP %d, want 200", hr.StatusCode)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Degraded || len(h.DriftingOps) != 1 || h.DriftingOps[0] != "gemm" {
		t.Fatalf("healthz body not degraded on gemm: %+v", h)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		`adsala_drift_observed_total{op="gemm"} 8`,
		"adsala_drift_degraded 1",
		`adsala_drift_op_drifting{op="gemm"} 1`,
		`adsala_kernel_measured_seconds_count{op="gemm"} 8`,
		"adsala_drift_window_seconds 60",
		`adsala_build_info{go_version="`,
		"adsala_uptime_seconds",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// The structured event log emits the drift_start edge when LogEvents
	// runs (the daemon's run() ticks it; here we drive it directly).
	before := out.Len()
	if n := srv.Engine().DriftMonitor().LogEvents(logx.New(&out, logx.Info)); n != 1 {
		t.Fatalf("LogEvents = %d, want 1", n)
	}
	if !strings.Contains(out.String()[before:], "event=drift_start") {
		t.Fatalf("drift_start not logged: %q", out.String()[before:])
	}
}
