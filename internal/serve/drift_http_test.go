package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/drift"
)

func TestDriftEndpointDisabled(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /drift without monitor: HTTP %d, want 404", resp.StatusCode)
	}
}

func TestMeasuredAndDriftRoundTrip(t *testing.T) {
	srv, ts := testServer(t)
	mon := drift.NewMonitor(drift.Config{
		Window:     time.Minute,
		Threshold:  1.0,
		MinSamples: 4,
	})
	srv.Engine().SetDriftMonitor(mon)

	// Report measurements that agree with the model's own estimate: the
	// residuals should hover near zero and the monitor must not trip.
	lib := srv.Engine().Library()
	var body strings.Builder
	body.WriteString(`{"records":[`)
	const n = 16
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		threads := lib.OptimalThreadsOp(OpGEMM, 256, 256, 256)
		ns := int64(lib.PredictOpSeconds(OpGEMM, 256, 256, 256, threads) * 1e9)
		if ns < 1 {
			ns = 1
		}
		fmt.Fprintf(&body, `{"op":"gemm","m":256,"k":256,"n":256,"threads":%d,"measured_ns":%d}`, threads, ns)
	}
	body.WriteString(`]}`)

	resp, err := http.Post(ts.URL+"/measured", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	var mr MeasuredResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || mr.Accepted != n {
		t.Fatalf("POST /measured: HTTP %d accepted %d, want 200/%d", resp.StatusCode, mr.Accepted, n)
	}

	resp, err = http.Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /drift: HTTP %d", resp.StatusCode)
	}
	var rep drift.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != drift.Schema {
		t.Errorf("schema %q, want %q", rep.Schema, drift.Schema)
	}
	if rep.Observed != n {
		t.Errorf("observed %d, want %d", rep.Observed, n)
	}
	if rep.Degraded || len(rep.DriftingOps) != 0 {
		t.Errorf("model-consistent measurements flagged as drift: %+v", rep.DriftingOps)
	}
	op, ok := rep.PerOp["gemm"]
	if !ok {
		t.Fatalf("per_op missing gemm: %v", rep.PerOp)
	}
	if op.Measured != n || op.ResidualLog2.Count != n {
		t.Errorf("gemm measured=%d residual count=%d, want %d", op.Measured, op.ResidualLog2.Count, n)
	}
	if m := op.ResidualLog2.Mean; m < -0.05 || m > 0.05 {
		t.Errorf("self-consistent residual mean %.4f, want ~0", m)
	}

	// The windowed samples feed /metrics and /healthz stays 200 (degraded
	// is a body bit, not an HTTP failure).
	cl := NewClient(ts.URL, nil)
	h, err := cl.Healthz(bg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded || len(h.DriftingOps) != 0 {
		t.Errorf("healthz degraded on consistent stream: %+v", h)
	}

	// The typed client wraps both endpoints.
	accepted, err := cl.ReportMeasured(bg, []MeasuredRecord{
		{PredictRequest: PredictRequest{M: 128, K: 128, N: 128, Op: "gemm"}, Threads: 4, MeasuredNs: 10_000},
	})
	if err != nil || accepted != 1 {
		t.Fatalf("client.ReportMeasured = %d, %v", accepted, err)
	}
	rep2, err := cl.Drift(bg)
	if err != nil {
		t.Fatalf("client.Drift: %v", err)
	}
	if rep2.Observed != n+1 {
		t.Errorf("client drift observed %d, want %d", rep2.Observed, n+1)
	}
}

func TestMeasuredDegradedHealth(t *testing.T) {
	srv, ts := testServer(t)
	mon := drift.NewMonitor(drift.Config{
		Window:     time.Minute,
		Threshold:  0.5,
		MinSamples: 4,
	})
	srv.Engine().SetDriftMonitor(mon)

	// Measurements 8x slower than the model's estimate: residual_log2 mean
	// is about -3, far past the 0.5 threshold.
	lib := srv.Engine().Library()
	threads := lib.OptimalThreadsOp(OpGEMM, 256, 256, 256)
	ns := int64(lib.PredictOpSeconds(OpGEMM, 256, 256, 256, threads) * 8e9)
	if ns < 8 {
		ns = 8
	}
	var body strings.Builder
	body.WriteString(`{"records":[`)
	for i := 0; i < 8; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"op":"gemm","m":256,"k":256,"n":256,"threads":%d,"measured_ns":%d}`, threads, ns)
	}
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/measured", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /measured: HTTP %d", resp.StatusCode)
	}

	// Degraded, not down: /healthz still answers 200 with the offending op
	// named in the body, so orchestrators keep routing while operators see
	// the quality regression.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz: HTTP %d, want 200", hr.StatusCode)
	}
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Degraded {
		t.Error("healthz degraded=false after sustained drift")
	}
	found := false
	for _, op := range h.DriftingOps {
		if op == "gemm" {
			found = true
		}
	}
	if !found {
		t.Errorf("drifting_ops %v missing gemm", h.DriftingOps)
	}
	if !mon.Degraded() {
		t.Error("monitor.Degraded() = false")
	}
}

func TestDriftMetricsExposition(t *testing.T) {
	srv, ts := testServer(t)
	mon := drift.NewMonitor(drift.Config{})
	srv.Engine().SetDriftMonitor(mon)
	mon.RegisterMetrics(srv.Registry())

	resp, err := http.Post(ts.URL+"/measured", "application/json",
		strings.NewReader(`{"records":[{"op":"gemm","m":512,"k":512,"n":512,"threads":8,"measured_ns":1000000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /measured: HTTP %d", resp.StatusCode)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	blob, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		`adsala_drift_observed_total{op="gemm"} 1`,
		`adsala_drift_window_samples{bucket="medium",op="gemm"} 1`,
		`adsala_drift_residual_log2_mean{bucket="medium",op="gemm"}`,
		`adsala_drift_abs_rel_err_mean{bucket="medium",op="gemm"}`,
		`adsala_drift_op_drifting{op="gemm"} 0`,
		"adsala_drift_degraded 0",
		"\nadsala_drift_window_seconds 60\n", // the whole line: CI greps ^…60$
		"adsala_drift_threshold_log2 1",
		`adsala_kernel_measured_seconds_count{op="gemm"} 1`,
		`adsala_kernel_predicted_seconds_count{op="gemm"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q", want)
		}
	}
}

func TestMeasuredErrors(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"get", func() (*http.Response, error) {
			return http.Get(ts.URL + "/measured")
		}, http.StatusMethodNotAllowed},
		{"bad json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json", strings.NewReader(`{`))
		}, http.StatusBadRequest},
		{"empty", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json", strings.NewReader(`{"records":[]}`))
		}, http.StatusBadRequest},
		{"bad dims", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"gemm","m":0,"k":1,"n":1,"threads":1,"measured_ns":5}]}`))
		}, http.StatusBadRequest},
		{"bad threads", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"gemm","m":1,"k":1,"n":1,"threads":0,"measured_ns":5}]}`))
		}, http.StatusBadRequest},
		{"dims beyond int32", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"gemm","m":2147483648,"k":1,"n":1,"threads":1,"measured_ns":5}]}`))
		}, http.StatusBadRequest},
		{"threads beyond int32", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"gemm","m":1,"k":1,"n":1,"threads":2147483648,"measured_ns":5}]}`))
		}, http.StatusBadRequest},
		{"bad measured_ns", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"gemm","m":1,"k":1,"n":1,"threads":1,"measured_ns":0}]}`))
		}, http.StatusBadRequest},
		{"bad op", func() (*http.Response, error) {
			return http.Post(ts.URL+"/measured", "application/json",
				strings.NewReader(`{"records":[{"op":"conv2d","m":1,"k":1,"n":1,"threads":1,"measured_ns":5}]}`))
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: HTTP %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}
