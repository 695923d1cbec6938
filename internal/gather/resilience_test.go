package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ops"
	"repro/internal/retry"
)

// TestDrainVsInflightResultRace races POST /drain against a /work
// mid-execution: drain must refuse new work at once, while the executing
// request still answers 200 with the unit's full result — a rolling restart
// must not throw away minutes of timing work. Run under -race this also pins
// the drain/exec synchronisation.
func TestDrainVsInflightResultRace(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 3)
	executing := make(chan struct{})
	release := make(chan struct{})
	_, srv := startWorker(t, WorkerOptions{
		Name: "w1",
		// Hold the unit in execution until drain has landed.
		execHook: func(Unit) error {
			close(executing)
			<-release
			return nil
		},
	})
	// A failed check below must not leave the handler blocked when the
	// server closes.
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)

	sweep := SweepSpec{
		Op: "gemm", Timer: spec, Domain: gcfg.Domain, Seed: gcfg.Seed,
		Candidates: gcfg.Candidates, Iters: gcfg.Iters,
	}
	sweep.Session = sweep.Fingerprint()
	coord := fastCoordinator([]string{srv.URL}, spec)
	ctx := context.Background()
	if _, err := coord.register(ctx, srv.URL, sweep); err != nil {
		t.Fatal(err)
	}
	unit := Unit{ID: 0, Start: 0, Count: 3}
	type answer struct {
		res *UnitResult
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		res, err := coord.runUnit(ctx, srv.URL, sweep, unit)
		answered <- answer{res, err}
	}()

	// Drain while the unit executes: the HTTP handler flips the flag at
	// once.
	<-executing
	resp, err := http.Post(srv.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/drain answered HTTP %d", resp.StatusCode)
	}

	// New work is refused the moment draining starts...
	blob, _ := json.Marshal(WorkRequest{Session: sweep.Session, Unit: Unit{ID: 1, Start: 3, Count: 3}})
	resp, err = http.Post(srv.URL+"/work", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining worker answered new work with HTTP %d, want 503", resp.StatusCode)
	}

	// ...but the executing unit completes and answers with its result.
	unblock()
	a := <-answered
	if a.err != nil {
		t.Fatalf("in-flight unit after drain: %v", a.err)
	}
	if res := a.res; res.UnitID != 0 || res.Start != 0 || res.Count != 3 || len(res.Timings) != 3 {
		t.Errorf("drained result = unit %d [%d,%d) with %d timings", res.UnitID, res.Start, res.Count, len(res.Timings))
	}
}

// TestChaosGatherMatchesSingleNode wires the fault-injection transport into
// the coordinator's HTTP client: injected latency, 503s, dropped
// connections and truncated bodies must all be absorbed by the unified
// retry/reassignment machinery, and the merged sweep must remain
// byte-identical to the single-node gather — chaos may cost retries, never
// correctness.
func TestChaosGatherMatchesSingleNode(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 12)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}

	_, s1 := startWorker(t, WorkerOptions{Name: "w1"})
	_, s2 := startWorker(t, WorkerOptions{Name: "w2"})
	var st faults.Stats
	sched := faults.NewSeeded(23, faults.Plan{
		LatencyP:  0.2,
		Delay:     time.Millisecond,
		ErrorP:    0.1,
		Status:    http.StatusServiceUnavailable,
		DropP:     0.08,
		TruncateP: 0.05,
	})
	// Logf stays nil: chaos is noisy by design.
	coord := fastCoordinator([]string{s1.URL, s2.URL}, spec)
	coord.tune.http = &http.Client{
		Transport: faults.Transport(http.DefaultTransport, sched, &st),
		Timeout:   15 * time.Second,
	}
	// Generous failure budgets: chaos must cost retries, not the run.
	coord.tune.maxUnitRetries = 50
	coord.tune.workerFailureLimit = 100
	coord.tune.retry = retry.Policy{MaxAttempts: 5, Initial: time.Millisecond, Max: 4 * time.Millisecond}

	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatalf("gather under chaos: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chaos changed the merged sweep: distributed result differs from single-node gather")
	}
	if !st.Fired() {
		t.Fatal("fault schedule never fired: the test proved nothing")
	}
	stats := coord.Stats()
	if stats.Units != 4 || stats.Dispatched < stats.Units {
		t.Errorf("stats = %+v, want all 4 units dispatched", stats)
	}
}
