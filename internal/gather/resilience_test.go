package gather

import (
	"context"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ops"
)

// TestDrainVsInflightResultRace races the daemon's drain —
// http.Server.Shutdown — against a /work mid-execution: the listener closes
// at once, so new connections are refused, while the executing request still
// answers 200 with the unit's full result — a rolling restart must not throw
// away minutes of timing work. Run under -race this also pins the
// shutdown/exec synchronisation.
func TestDrainVsInflightResultRace(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 3)
	executing := make(chan struct{})
	release := make(chan struct{})
	_, srv := startWorker(t, WorkerOptions{
		Name: "w1",
		// Hold the unit in execution until the shutdown has landed.
		execHook: func(int) error {
			close(executing)
			<-release
			return nil
		},
	})
	// A failed check below must not leave the handler blocked when the
	// server closes.
	unblock := sync.OnceFunc(func() { close(release) })
	t.Cleanup(unblock)

	coord := fastCoordinator([]string{srv.URL}, spec)
	ctx := context.Background()
	u := Unit{ID: 0, Start: 0, Count: 3}
	work := testWork(t, gcfg, spec, u)
	type answer struct {
		res *UnitResult
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		res, err := coord.runUnit(ctx, srv.URL, work.Spec, u, work.Shapes)
		answered <- answer{res, err}
	}()

	// Shut down while the unit executes: Shutdown closes the listener first,
	// then waits for the executing request.
	<-executing
	shutdown := make(chan error, 1)
	go func() { shutdown <- srv.Config.Shutdown(ctx) }()
	addr := srv.Listener.Addr().String()
	refused := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			refused = true
			break
		}
		conn.Close()
	}
	if !refused {
		t.Error("the shutting-down worker still accepts connections")
	}
	select {
	case err := <-shutdown:
		t.Fatalf("Shutdown returned (%v) while a unit was executing", err)
	default:
	}

	// ...but the executing unit completes and answers with its result.
	unblock()
	a := <-answered
	if a.err != nil {
		t.Fatalf("in-flight unit after shutdown began: %v", a.err)
	}
	if res := a.res; res.UnitID != 0 || res.Start != 0 || res.Count != 3 || len(res.Timings) != 3 {
		t.Errorf("drained result = unit %d [%d,%d) with %d timings", res.UnitID, res.Start, res.Count, len(res.Timings))
	}
	if err := <-shutdown; err != nil {
		t.Errorf("Shutdown: %v", err)
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
