package gather

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ops"
)

// scrape fetches a /metrics exposition and returns its text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// TestWorkerReadinessLifecycle pins the probe contract: /healthz is 503
// "starting" before the first registration, 200 "ok" after, 503
// "draining" once drain begins; /livez answers 200 throughout.
func TestWorkerReadinessLifecycle(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	_ = gcfg
	w, srv := startWorker(t, WorkerOptions{Name: "w1"})

	probe := func(path string) (int, StatusResponse) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	if code, st := probe("/healthz"); code != http.StatusServiceUnavailable || st.Status != "starting" || st.Registered {
		t.Fatalf("unregistered healthz = %d %+v", code, st)
	}
	if code, _ := probe("/livez"); code != http.StatusOK {
		t.Fatalf("unregistered livez = %d", code)
	}

	// Register a sweep: readiness flips.
	sweep := SweepSpec{
		Op: "gemm", Timer: spec, Domain: gcfg.Domain, Seed: gcfg.Seed,
		Candidates: gcfg.Candidates, Iters: gcfg.Iters,
	}
	sweep.Session = sweep.Fingerprint()
	coord := fastCoordinator([]string{srv.URL}, spec)
	if _, err := coord.register(context.Background(), srv.URL, sweep); err != nil {
		t.Fatal(err)
	}
	if code, st := probe("/healthz"); code != http.StatusOK || st.Status != "ok" || !st.Registered {
		t.Fatalf("registered healthz = %d %+v", code, st)
	}

	// Drain: readiness flips off again, liveness stays.
	resp, err := http.Post(srv.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code, st := probe("/healthz"); code != http.StatusServiceUnavailable || st.Status != "draining" {
		t.Fatalf("draining healthz = %d %+v", code, st)
	}
	if code, _ := probe("/livez"); code != http.StatusOK {
		t.Fatalf("draining livez = %d", code)
	}
	_ = w
}

// TestWorkerPprofGate checks the worker's profiling endpoints stay off
// until explicitly enabled — same contract as the serve daemon.
func TestWorkerPprofGate(t *testing.T) {
	w, srv := startWorker(t, WorkerOptions{Name: "w1"})
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable without EnablePprof")
	}
	w.EnablePprof()
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d after EnablePprof", resp.StatusCode)
	}
}

// TestWorkerMetricsEndToEnd runs one distributed sweep and checks the
// worker's exposition accounts for every unit.
func TestWorkerMetricsEndToEnd(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	_, s1 := startWorker(t, WorkerOptions{Name: "w1"})

	// 9 shapes at 3 per unit = 3 units.
	if _, err := fastCoordinator([]string{s1.URL}, spec).Gather(context.Background(), gcfg); err != nil {
		t.Fatal(err)
	}

	wtext := scrape(t, s1.URL)
	for _, want := range []string{
		"adsala_worker_units_accepted_total 3",
		"adsala_worker_units_completed_total 3",
		"adsala_worker_units_failed_total 0",
		"adsala_worker_unit_seconds_count 3",
		"adsala_worker_registered 1",
		"adsala_worker_draining 0",
		`adsala_build_info{go_version="`,
		"adsala_uptime_seconds",
	} {
		if !strings.Contains(wtext, want) {
			t.Errorf("worker exposition lacks %q:\n%s", want, wtext)
		}
	}
}
