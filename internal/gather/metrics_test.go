package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
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

// TestWorkerReadinessLifecycle pins the one-probe contract: /healthz
// answers 200 with exactly {status, completed, inflight} and status "ok"
// whenever the process answers — before any work, while a unit is in its
// request and after it — and there is no second probe.
func TestWorkerReadinessLifecycle(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	executing := make(chan struct{})
	release := make(chan struct{})
	_, srv := startWorker(t, WorkerOptions{Name: "w1", execHook: func(Unit) error {
		close(executing)
		<-release
		return nil
	}})
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)

	probe := func(completed float64) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		_, hasInflight := body["inflight"]
		if resp.StatusCode != http.StatusOK || len(body) != 3 || body["status"] != "ok" ||
			body["completed"] != completed || !hasInflight {
			t.Errorf("healthz = %d %v, want 200 {status: ok, completed: %v, inflight}", resp.StatusCode, body, completed)
		}
	}
	probe(0)

	answered := make(chan int, 1)
	blob, _ := json.Marshal(testWork(t, gcfg, spec, Unit{ID: 0, Start: 0, Count: 1}))
	go func() {
		resp, err := http.Post(srv.URL+"/work", "application/json", bytes.NewReader(blob))
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	<-executing
	probe(0)
	unblock()
	if code := <-answered; code != http.StatusOK {
		t.Fatalf("work: HTTP %d", code)
	}
	probe(1)

	resp, err := http.Get(srv.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/livez: HTTP %d, want 404", resp.StatusCode)
	}
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
		"adsala_worker_inflight_units 0",
		`adsala_build_info{go_version="`,
		"adsala_uptime_seconds",
	} {
		if !strings.Contains(wtext, want) {
			t.Errorf("worker exposition lacks %q:\n%s", want, wtext)
		}
	}
	// A worker holds no session and has no drain state to report.
	for _, gone := range []string{"adsala_worker_registered", "adsala_worker_draining"} {
		if strings.Contains(wtext, gone) {
			t.Errorf("worker exposition still has %s:\n%s", gone, wtext)
		}
	}
}
