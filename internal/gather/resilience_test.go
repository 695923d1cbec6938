package gather

import (
	"context"
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

// TestDrainVsInflightResultRace races POST /drain against a unit mid-
// execution: drain must refuse new work immediately, wait for the in-flight
// unit, and keep its completed result fetchable — a rolling restart must
// not throw away minutes of timing work. Run under -race this also pins the
// drain/exec synchronisation.
func TestDrainVsInflightResultRace(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 3)
	w, srv := startWorker(t, WorkerOptions{
		Name: "w1",
		// Long enough that drain reliably lands while the unit is in flight.
		execHook: func(Unit) { time.Sleep(60 * time.Millisecond) },
	})

	sweep := SweepSpec{
		Op: "gemm", Timer: spec, Domain: gcfg.Domain, Seed: gcfg.Seed,
		Candidates: gcfg.Candidates, Iters: gcfg.Iters, Run: "r1",
	}
	sweep.Session = sweep.Fingerprint()
	coord := fastCoordinator([]string{srv.URL}, spec)
	ctx := context.Background()
	if err := coord.postJSON(ctx, srv.URL+"/register", sweep, nil); err != nil {
		t.Fatal(err)
	}
	unit := Unit{ID: 0, Start: 0, Count: 3}
	if err := coord.postJSON(ctx, srv.URL+"/work", WorkRequest{Session: sweep.Session, Unit: unit}, nil); err != nil {
		t.Fatal(err)
	}

	// Drain while the unit executes: the HTTP handler flips the flag at
	// once; Worker.Drain blocks until the in-flight unit lands.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/drain", "application/json", nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/drain answered HTTP %d", resp.StatusCode)
		}
	}()
	wg.Wait()

	// New work is refused the moment draining starts...
	err := coord.postJSON(ctx, srv.URL+"/work",
		WorkRequest{Session: sweep.Session, Unit: Unit{ID: 1, Start: 3, Count: 3}}, nil)
	if err == nil {
		t.Error("draining worker accepted new work")
	}

	// ...but the in-flight unit completes and its result stays fetchable.
	drainCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := w.Drain(drainCtx); err != nil {
		t.Fatalf("Drain did not settle: %v", err)
	}
	if w.Unfetched() != 1 {
		t.Fatalf("Unfetched = %d after drain, want the completed unit", w.Unfetched())
	}
	res, pending, err := coord.getResult(ctx, srv.URL+"/result?session="+sweep.Session+"&id=0",
		resultLimit(unit.Count, len(sweep.Candidates)))
	if err != nil || pending {
		t.Fatalf("result after drain: (pending=%v, %v)", pending, err)
	}
	if res.UnitID != 0 || res.Start != 0 || res.Count != 3 || len(res.Timings) != 3 {
		t.Errorf("drained result = unit %d [%d,%d) with %d timings", res.UnitID, res.Start, res.Count, len(res.Timings))
	}
	// The lingering daemon may now exit: everything is fetched.
	if w.Unfetched() != 0 {
		t.Errorf("Unfetched = %d after fetch, want 0", w.Unfetched())
	}
	fetchCtx, cancel2 := context.WithTimeout(ctx, time.Second)
	defer cancel2()
	if err := w.WaitFetched(fetchCtx); err != nil {
		t.Errorf("WaitFetched after full fetch: %v", err)
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
