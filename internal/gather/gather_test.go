package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// testGatherConfig returns a small simulated-Gadi gather config. The
// Coordinator ignores the Timer; the single-node reference builds it from
// the same spec, so both sides time identically.
func testGatherConfig(t *testing.T, op ops.Op, shapes int) (core.GatherConfig, simtime.Spec) {
	t.Helper()
	spec := simtime.SimSpec("Gadi", 7, true)
	timer, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return core.GatherConfig{
		Timer:      timer,
		Domain:     sampling.DefaultDomain().WithCapMB(100),
		NumShapes:  shapes,
		Candidates: []int{1, 2, 4, 8, 16, 48},
		Iters:      2,
		Seed:       7,
		Op:         op,
	}, spec
}

// startWorker runs an in-process Worker and returns its base URL.
func startWorker(t *testing.T, opts WorkerOptions) (*Worker, *httptest.Server) {
	t.Helper()
	w := NewWorker(opts)
	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	return w, srv
}

// after returns an execHook that holds a healthy worker's units until the
// faulty worker beside it has been sent one, so the fault is exercised
// whichever worker loop the scheduler starts first. The wait is bounded, so
// a faulty worker that never gets a unit fails the test instead of hanging
// it.
func after(faultyStarted <-chan struct{}) func(int) error {
	return func(int) error {
		select {
		case <-faultyStarted:
		case <-time.After(5 * time.Second):
		}
		return nil
	}
}

// meet returns two execHooks that hold each worker's first unit until the
// other worker has started one, so both workers of a sweep execute at least
// one unit whichever worker loop the scheduler starts first. The wait is
// bounded, like after's.
func meet() (func(int) error, func(int) error) {
	hook := func(mine chan struct{}, once *sync.Once, theirs <-chan struct{}) func(int) error {
		return func(int) error {
			once.Do(func() { close(mine) })
			select {
			case <-theirs:
			case <-time.After(5 * time.Second):
			}
			return nil
		}
	}
	a, b := make(chan struct{}), make(chan struct{})
	var onceA, onceB sync.Once
	return hook(a, &onceA, b), hook(b, &onceB, a)
}

// fastCoordinator returns a Coordinator tuned for test latencies.
func fastCoordinator(workers []string, spec simtime.Spec) *Coordinator {
	c := New(Config{Workers: workers, Timer: spec})
	c.tune.unitShapes = 3
	c.tune.unitTimeout = 5 * time.Second
	return c
}

// mergedWorkers makes the coordinator record the Worker name of every unit
// result it merges, and returns the reader of the set.
func mergedWorkers(c *Coordinator) func() map[string]bool {
	var mu sync.Mutex
	names := make(map[string]bool)
	c.cfg.Logf = func(format string, args ...any) {
		if strings.HasPrefix(format, "unit %d/%d merged (worker %s") {
			mu.Lock()
			names[args[2].(string)] = true
			mu.Unlock()
		}
	}
	return func() map[string]bool {
		mu.Lock()
		defer mu.Unlock()
		return names
	}
}

// TestDistributedMatchesSingleNode pins the headline invariant: a
// coordinator with two workers on the simulator backend produces a merged
// sweep byte-identical to the single-node gather with the same seed and
// domain — for every registered op.
func TestDistributedMatchesSingleNode(t *testing.T) {
	for _, op := range ops.All() {
		t.Run(op.String(), func(t *testing.T) {
			gcfg, spec := testGatherConfig(t, op, 14)
			want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
			if err != nil {
				t.Fatal(err)
			}

			hook1, hook2 := meet()
			_, s1 := startWorker(t, WorkerOptions{Name: "w1", execHook: hook1})
			_, s2 := startWorker(t, WorkerOptions{Name: "w2", execHook: hook2})
			coord := fastCoordinator([]string{s1.URL, s2.URL}, spec)
			merged := mergedWorkers(coord)
			got, err := coord.Gather(context.Background(), gcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("distributed sweep differs from single-node gather for %v", op)
			}
			st := coord.Stats()
			if st.Units != 5 || st.Dispatched != 5 || st.Duplicates != 0 {
				t.Errorf("stats = %+v, want 5 units all dispatched, none duplicated", st)
			}
			if names := merged(); !names["w1"] || !names["w2"] {
				t.Errorf("merged results came from workers %v, want both w1 and w2", names)
			}
		})
	}
}

// TestCoordinatorFeedsTrain runs the full installation workflow through the
// distributed gatherer and checks the trained artefact round-trips and
// predicts — the distributed path is a drop-in core.Gatherer.
func TestCoordinatorFeedsTrain(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 48)
	gcfg.Candidates = core.DefaultCandidates(96)

	_, s1 := startWorker(t, WorkerOptions{Name: "w1"})
	_, s2 := startWorker(t, WorkerOptions{Name: "w2"})
	coord := fastCoordinator([]string{s1.URL, s2.URL}, spec)

	cfg := core.DefaultTrainConfig(gcfg, "Gadi", 48)
	cfg.Models = core.DefaultModels(7, true)
	cfg.Gatherer = coord
	res, err := core.Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dist.adsala.json")
	if err := res.Library.Save(path); err != nil {
		t.Fatal(err)
	}
	lib, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.OptimalThreadsOp(ops.GEMM, 512, 512, 512); got < 1 {
		t.Fatalf("loaded library predicted %d threads", got)
	}

	// Train consumed exactly the sweep the single-node gather would have
	// produced. (Model *selection* additionally depends on eval latency
	// measured on the wall clock, so decisions — not data — may differ
	// between any two Train runs, distributed or not.)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Data, want) {
		t.Fatal("distributed Train consumed a different sweep than the single-node gather")
	}
}

// TestKilledWorkerMidUnit kills one worker while it executes a unit; the
// sweep must still complete, identical to single-node, with every unit
// accounted for exactly once.
func TestKilledWorkerMidUnit(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 14)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Victim: slow enough that the kill lands mid-unit.
	victim := NewWorker(WorkerOptions{
		Name:     "victim",
		execHook: func(int) error { time.Sleep(100 * time.Millisecond); return nil },
	})
	var kill sync.Once
	victimStarted := make(chan struct{})
	var victimSrv *httptest.Server
	victimSrv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" {
			kill.Do(func() {
				close(victimStarted)
				go func() {
					time.Sleep(20 * time.Millisecond) // mid-unit: exec sleeps 100ms
					victimSrv.CloseClientConnections()
					victimSrv.Close()
				}()
			})
		}
		victim.ServeHTTP(rw, r)
	}))
	t.Cleanup(func() {
		defer func() { recover() }() // double-Close on the happy path
		victimSrv.Close()
	})
	_, healthy := startWorker(t, WorkerOptions{Name: "healthy", execHook: after(victimStarted)})

	coord := fastCoordinator([]string{victimSrv.URL, healthy.URL}, spec)
	coord.tune.workerFailureLimit = 2
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep after worker kill differs from single-node gather")
	}
	st := coord.Stats()
	if st.Retries < 1 {
		t.Errorf("expected at least one retried unit after the kill, stats = %+v", st)
	}
	if st.Dispatched+st.Resumed < st.Units {
		t.Errorf("units not all accounted for: %+v", st)
	}
}

// TestSlowWorkerReassigned times out a unit on a slow worker and completes
// it elsewhere.
func TestSlowWorkerReassigned(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}

	slowStarted := make(chan struct{})
	var once sync.Once
	_, slow := startWorker(t, WorkerOptions{
		Name: "slow",
		execHook: func(int) error {
			once.Do(func() { close(slowStarted) })
			time.Sleep(500 * time.Millisecond)
			return nil
		},
	})
	_, fast := startWorker(t, WorkerOptions{Name: "fast", execHook: after(slowStarted)})

	coord := fastCoordinator([]string{slow.URL, fast.URL}, spec)
	coord.tune.unitTimeout = 50 * time.Millisecond
	coord.tune.workerFailureLimit = 1 // first timeout retires the slow worker
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with slow worker differs from single-node gather")
	}
	if st := coord.Stats(); st.Retries < 1 {
		t.Errorf("expected the slow worker's unit to be retried, stats = %+v", st)
	}
}

// byzantineWorker implements the worker protocol but answers every /work
// with a replay of the first unit it completed — the duplicate-result
// fault. The coordinator must reject the mismatched replays and reassign.
type byzantineWorker struct {
	inner  *Worker
	mu     sync.Mutex
	replay *UnitResult
}

func (b *byzantineWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/work" {
		b.inner.ServeHTTP(rw, r)
		return
	}
	// Serve the genuine result once to capture it, then replay it forever.
	b.mu.Lock()
	replay := b.replay
	b.mu.Unlock()
	if replay != nil {
		writeJSON(rw, http.StatusOK, replay)
		return
	}
	rec := httptest.NewRecorder()
	b.inner.ServeHTTP(rec, r)
	if rec.Code == http.StatusOK {
		var res UnitResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err == nil {
			b.mu.Lock()
			b.replay = &res
			b.mu.Unlock()
		}
	}
	for k, v := range rec.Header() {
		rw.Header()[k] = v
	}
	rw.WriteHeader(rec.Code)
	rw.Write(rec.Body.Bytes())
}

// TestDuplicateResultRejected injects replayed (duplicate) results from a
// byzantine worker: the coordinator must refuse to merge a result that does
// not match the dispatched unit, reassign, and still finish with every unit
// exactly once and a byte-identical sweep.
func TestDuplicateResultRejected(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 12)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}

	byz := &byzantineWorker{inner: NewWorker(WorkerOptions{Name: "byzantine"})}
	byzSrv := httptest.NewServer(byz)
	t.Cleanup(byzSrv.Close)
	_, honest := startWorker(t, WorkerOptions{Name: "honest"})

	coord := fastCoordinator([]string{byzSrv.URL, honest.URL}, spec)
	coord.tune.workerFailureLimit = 2
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with byzantine worker differs from single-node gather")
	}
}

// TestMergeDedup pins the merge invariant directly: a second result for an
// already-merged unit is dropped, not double-counted.
func TestMergeDedup(t *testing.T) {
	completed := make(map[int][]core.ShapeTimings)
	res := UnitResult{UnitID: 3, Timings: []core.ShapeTimings{{}}}
	if !mergeResult(completed, res) {
		t.Fatal("first result should merge")
	}
	if mergeResult(completed, res) {
		t.Fatal("duplicate result should be dropped")
	}
	if len(completed) != 1 || len(completed[3]) != 1 {
		t.Fatalf("completed corrupted by duplicate: %v", completed)
	}
}

// recordingWorker wraps a Worker and records the unit IDs it is asked to
// execute.
func recordingWorker(t *testing.T, opts WorkerOptions) (*httptest.Server, *sync.Map) {
	t.Helper()
	w := NewWorker(opts)
	var seen sync.Map
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" && r.Method == http.MethodPost {
			var req WorkRequest
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if json.Unmarshal(body, &req) == nil {
				seen.Store(req.ID, true)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		w.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &seen
}

// TestCheckpointResume interrupts a sweep, restarts the coordinator on the
// same checkpoint, and verifies only the remaining units are dispatched
// while the merged sweep still matches single-node exactly.
func TestCheckpointResume(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 15) // 5 units of 3
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "gather.ckpt")

	// Phase 1: a worker that accepts two units then refuses all work. With
	// a single worker and retries exhausted, the gather errors out
	// mid-sweep — but the two completed units are checkpointed.
	w2 := NewWorker(WorkerOptions{Name: "flaky"})
	var accepted atomic.Int64
	flakySrv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" && accepted.Load() >= 2 {
			writeError(rw, http.StatusInternalServerError, "injected failure")
			return
		}
		if r.URL.Path == "/work" {
			accepted.Add(1)
		}
		w2.ServeHTTP(rw, r)
	}))
	t.Cleanup(flakySrv.Close)

	coord1 := fastCoordinator([]string{flakySrv.URL}, spec)
	coord1.cfg.Checkpoint = ckpt
	coord1.tune.workerFailureLimit = 2
	coord1.tune.maxUnitRetries = 2
	if _, err := coord1.Gather(context.Background(), gcfg); err == nil {
		t.Fatal("interrupted sweep should error")
	}
	// Stats are recorded for failed runs too — they are the diagnostic.
	if st := coord1.Stats(); st.Units != 5 || st.Retries < 1 {
		t.Errorf("failed-run stats = %+v, want 5 units, >=1 retry", st)
	}

	blob, err := os.ReadFile(ckpt + ".gemm")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"worker":"flaky"`) {
		t.Errorf("no checkpointed unit names the flaky worker:\n%s", blob)
	}
	lines := strings.Count(strings.TrimRight(string(blob), "\n"), "\n") + 1
	done := lines - 1 // minus header
	if done < 1 || done >= 5 {
		t.Fatalf("phase 1 checkpointed %d of 5 units; want a partial sweep", done)
	}

	// Phase 2: restart on a healthy worker. Only the remaining units may be
	// dispatched.
	healthySrv, seen := recordingWorker(t, WorkerOptions{Name: "healthy"})
	coord := fastCoordinator([]string{healthySrv.URL}, spec)
	coord.cfg.Checkpoint = ckpt
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed sweep differs from single-node gather")
	}
	st := coord.Stats()
	if st.Resumed != done {
		t.Errorf("Resumed = %d, want %d", st.Resumed, done)
	}
	dispatched := 0
	seen.Range(func(k, v any) bool { dispatched++; return true })
	if dispatched != 5-done {
		t.Errorf("phase 2 dispatched %d units, want only the %d remaining", dispatched, 5-done)
	}

	// Phase 3: a fully complete checkpoint needs no fleet at all — the
	// workers are gone (dead address) and the sweep still assembles.
	coord3 := fastCoordinator([]string{"127.0.0.1:1"}, spec)
	coord3.cfg.Checkpoint = ckpt
	coord3.tune.http = &http.Client{Timeout: 200 * time.Millisecond}
	got3, err := coord3.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Fatal("fully-resumed sweep differs from single-node gather")
	}
	if st := coord3.Stats(); st.Resumed != 5 || st.Dispatched != 0 {
		t.Errorf("full-resume stats = %+v", st)
	}
}

// blippyWorker drops the first two /work connections at the transport
// level (connection closed mid-request) — a network blip, not a worker
// fault.
type blippyWorker struct {
	inner *Worker
	blips atomic.Int64
}

func (b *blippyWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/work" && b.blips.Add(1) <= 2 {
		hj, ok := rw.(http.Hijacker)
		if !ok {
			panic("test server does not support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close() // client sees EOF: a transport error
		}
		return
	}
	b.inner.ServeHTTP(rw, r)
}

// TestDroppedWorkConnectionRedispatches pins what a blip costs: a /work
// connection dropped mid-unit fails that attempt and the unit is dispatched
// again, so the sweep completes byte-identical even on the only worker.
func TestDroppedWorkConnectionRedispatches(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	blippy := &blippyWorker{inner: NewWorker(WorkerOptions{Name: "blippy"})}
	srv := httptest.NewServer(blippy)
	t.Cleanup(srv.Close)

	coord := fastCoordinator([]string{srv.URL}, spec)
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with dropped /work connections differs from single-node gather")
	}
	if st := coord.Stats(); st.Retries < 2 {
		t.Errorf("two dropped connections caused %d retries, want at least 2 re-dispatches", st.Retries)
	}
}

// TestCheckpointRejectsForeignSweep refuses to mix checkpoints across
// sweeps: a different seed fingerprints differently.
func TestCheckpointRejectsForeignSweep(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	ckpt := filepath.Join(t.TempDir(), "gather.ckpt")
	_, srv := startWorker(t, WorkerOptions{Name: "w"})
	coord := fastCoordinator([]string{srv.URL}, spec)
	coord.cfg.Checkpoint = ckpt
	if _, err := coord.Gather(context.Background(), gcfg); err != nil {
		t.Fatal(err)
	}
	gcfg.Seed = 99 // different sweep, same checkpoint path
	if _, err := coord.Gather(context.Background(), gcfg); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
}

// TestCheckpointToleratesPartialLine simulates a crash mid-append: the
// truncated final line is discarded, earlier units still resume.
func TestCheckpointToleratesPartialLine(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "gather.ckpt")
	_, srv := startWorker(t, WorkerOptions{Name: "w"})
	coord1 := fastCoordinator([]string{srv.URL}, spec)
	coord1.cfg.Checkpoint = ckpt
	if _, err := coord1.Gather(context.Background(), gcfg); err != nil {
		t.Fatal(err)
	}

	path := ckpt + ".gemm"
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the last line mid-JSON.
	trimmed := strings.TrimRight(string(blob), "\n")
	cut := trimmed[:len(trimmed)-20]
	if err := os.WriteFile(path, []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}

	_, srv2 := startWorker(t, WorkerOptions{Name: "w2"})
	coord := fastCoordinator([]string{srv2.URL}, spec)
	coord.cfg.Checkpoint = ckpt
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resume after truncated checkpoint differs from single-node gather")
	}
	if st := coord.Stats(); st.Resumed != 2 || st.Dispatched != 1 {
		t.Errorf("stats after truncated resume = %+v, want 2 resumed + 1 redispatched", st)
	}

	// The resumed file must be fully valid again (the partial line was
	// truncated before appending, not appended onto): a further resume
	// with no workers at all reads every unit back cleanly.
	coord3 := fastCoordinator([]string{"127.0.0.1:1"}, spec)
	coord3.cfg.Checkpoint = ckpt
	coord3.tune.http = &http.Client{Timeout: 200 * time.Millisecond}
	got3, err := coord3.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatalf("checkpoint corrupted by the truncated-line resume: %v", err)
	}
	if !reflect.DeepEqual(got3, want) {
		t.Fatal("second resume differs from single-node gather")
	}
}

// TestConcurrentMerge shards a larger sweep over four workers with 1-shape
// units — the -race exercise of the dispatch/merge machinery.
func TestConcurrentMerge(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 32)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 4; i++ {
		_, srv := startWorker(t, WorkerOptions{Name: "w"})
		urls = append(urls, srv.URL)
	}
	coord := fastCoordinator(urls, spec)
	coord.tune.unitShapes = 1
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("4-worker sweep differs from single-node gather")
	}
	if st := coord.Stats(); st.Units != 32 || st.Dispatched != 32 {
		t.Errorf("stats = %+v, want all 32 units dispatched", st)
	}
}

// TestOneUnitInFlightPerWorker pins the traffic that makes a per-worker
// concurrency setting meaningless: in a fault-free sweep the coordinator
// waits for each unit's answer before dispatching the next to that worker,
// so no worker ever has two units executing at once. It fails the day the
// coordinator pipelines units to one worker.
func TestOneUnitInFlightPerWorker(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 32)
	var urls []string
	peaks := make([]*atomic.Int64, 4)
	for i := range peaks {
		var cur atomic.Int64
		peak := new(atomic.Int64)
		peaks[i] = peak
		// The hook runs before the execution lock, and its sleep keeps a
		// unit visible long enough for a pipelined second one to overlap it.
		_, srv := startWorker(t, WorkerOptions{Name: "w", execHook: func(int) error {
			storeMax(peak, cur.Add(1))
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}})
		urls = append(urls, srv.URL)
	}
	coord := fastCoordinator(urls, spec)
	coord.tune.unitShapes = 1
	if _, err := coord.Gather(context.Background(), gcfg); err != nil {
		t.Fatal(err)
	}
	if st := coord.Stats(); st.Retries != 0 || st.Dispatched != 32 {
		t.Fatalf("stats = %+v, want a fault-free sweep of 32 units", st)
	}
	for i, peak := range peaks {
		if got := peak.Load(); got != 1 {
			t.Errorf("worker %d had %d units executing at once, want 1", i, got)
		}
	}
}

// storeMax raises a to v when v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for m := a.Load(); v > m && !a.CompareAndSwap(m, v); m = a.Load() {
	}
}

// endlessResult answers every /work with 200 and a JSON body that
// never ends, delegating everything else to a real worker. It records the
// most bytes one answer got written before the coordinator hung up, and
// stops by itself at 64 MiB.
type endlessResult struct {
	inner   *Worker
	maxSent atomic.Int64
}

func (e *endlessResult) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/work" {
		e.inner.ServeHTTP(rw, r)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	sent := 0
	if n, err := io.WriteString(rw, `{"timings":[`); err == nil {
		sent = n
		chunk := []byte(strings.Repeat(`{"shape":{"M":1,"K":1,"N":1},"times":[]},`, 100))
		for sent < 64<<20 {
			n, err := rw.Write(chunk)
			sent += n
			if err != nil {
				break
			}
		}
	}
	storeMax(&e.maxSent, int64(sent))
}

// TestEndlessResultBodyBounded: the coordinator reads a worker's /work
// answer through a limit derived from the unit, so a worker streaming a body
// without end fails its unit with a decode error after that limit (plus
// whatever the transport buffers), and the sweep completes elsewhere.
func TestEndlessResultBodyBounded(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	endless := &endlessResult{inner: NewWorker(WorkerOptions{Name: "endless"})}
	endlessStarted := make(chan struct{})
	var once sync.Once
	endlessSrv := httptest.NewUnstartedServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" {
			once.Do(func() { close(endlessStarted) })
		}
		endless.ServeHTTP(rw, r)
	}))
	// A fixed send buffer: left to autotune, loopback TCP lets the server
	// queue megabytes before the coordinator's hang-up reaches it.
	endlessSrv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && s == http.StateNew {
			tc.SetWriteBuffer(16 << 10)
		}
	}
	endlessSrv.Start()
	t.Cleanup(endlessSrv.Close)
	_, healthy := startWorker(t, WorkerOptions{Name: "healthy", execHook: after(endlessStarted)})

	coord := fastCoordinator([]string{endlessSrv.URL, healthy.URL}, spec)
	var decodeFailures atomic.Int64
	coord.cfg.Logf = func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.Contains(line, endlessSrv.URL+": unit") &&
			strings.Contains(line, "decode result") {
			decodeFailures.Add(1)
		}
	}
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep beside an endless-body worker differs from single-node gather")
	}
	if decodeFailures.Load() < 1 {
		t.Error("no unit on the endless-body worker failed with a decode error")
	}

	// Close waits for the streaming handlers to return.
	endlessSrv.Close()
	// Transport buffering: the coordinator's 4 KiB drain before it hangs up,
	// plus the socket buffers on both ends (40–100 KiB measured on loopback).
	const buffering = 512 << 10
	limit := resultLimit(coord.tune.unitShapes, len(gcfg.Candidates))
	sent := endless.maxSent.Load()
	t.Logf("largest answer written: %d bytes (limit %d)", sent, limit)
	if sent == 0 || sent > limit+buffering {
		t.Errorf("endless worker wrote %d bytes into one answer, want at most the %d-byte limit + %d", sent, limit, buffering)
	}
}

// testSweep returns the wire spec of a test gather config, as the
// coordinator builds it.
func testSweep(gcfg core.GatherConfig, timer simtime.Spec) SweepSpec {
	s := SweepSpec{
		Op:         gcfg.Op.String(),
		Timer:      timer,
		Domain:     gcfg.Domain,
		Seed:       gcfg.Seed,
		Candidates: gcfg.Candidates,
		Iters:      gcfg.Iters,
	}
	s.Session = s.Fingerprint()
	return s
}

// testWork returns the /work request of unit u of a test gather config, as
// the coordinator builds it: the spec, the unit's ID and its slice of the
// sample.
func testWork(t testing.TB, gcfg core.GatherConfig, timer simtime.Spec, u Unit) WorkRequest {
	t.Helper()
	sample, err := core.SampleOpShapes(gcfg.Domain, gcfg.Seed, gcfg.Op, u.Start+u.Count)
	if err != nil {
		t.Fatal(err)
	}
	return WorkRequest{Spec: testSweep(gcfg, timer), ID: u.ID, Shapes: u.shapes(sample)}
}

// postJSON POSTs body as JSON to base+path; the answer is closed at cleanup.
func postJSON(t *testing.T, base, path string, body any) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// Shapes at the real backend's float32 cap of 500 MB and one element past
// it: 4·(mk + kn + mn) is 500 000 000 and 500 000 004 bytes.
var (
	capShape     = sampling.Shape{M: 10000, K: 10000, N: 1250}
	overCapShape = sampling.Shape{M: 2002, K: 59577, N: 93}
)

// atBounds returns a request exactly at every bound of bounded: the largest
// unit of shapes at the paper's dimension bound, the most repetitions and
// the most candidates reaching the largest thread count.
func atBounds(timer simtime.Spec) WorkRequest {
	spec := SweepSpec{
		Op:     "gemm",
		Timer:  timer,
		Domain: sampling.DefaultDomain().WithCapMB(1),
		Seed:   7,
		Iters:  maxIters,
	}
	for c := maxThreads - maxCandidates + 1; c <= maxThreads; c++ {
		spec.Candidates = append(spec.Candidates, c)
	}
	spec.Session = spec.Fingerprint()
	shapes := make([]sampling.Shape, maxUnitShapes)
	for i := range shapes {
		shapes[i] = sampling.Shape{M: 74000, K: 74000, N: 74000}
	}
	return WorkRequest{Spec: spec, ID: 9, Shapes: shapes}
}

// atCap returns a real-backend request whose every shape is exactly at the
// float32 byte cap.
func atCap() WorkRequest {
	req := atBounds(simtime.RealSpec())
	for i := range req.Shapes {
		req.Shapes[i] = capShape
	}
	return req
}

// overBounds returns one request per bound of bounded, each that bound + 1
// away from atBounds (or, for the byte cap, from atCap) and fingerprinted,
// keyed by the bound it breaks.
func overBounds(timer simtime.Spec) map[string]WorkRequest {
	edit := func(req WorkRequest, f func(*WorkRequest)) WorkRequest {
		req.Spec.Candidates = append([]int(nil), req.Spec.Candidates...)
		req.Shapes = append([]sampling.Shape(nil), req.Shapes...)
		f(&req)
		req.Spec.Session = req.Spec.Fingerprint()
		return req
	}
	at := atBounds(timer)
	return map[string]WorkRequest{
		"count":        edit(at, func(r *WorkRequest) { r.Shapes = append(r.Shapes, r.Shapes[0]) }),
		"iters":        edit(at, func(r *WorkRequest) { r.Spec.Iters++ }),
		"candidates":   edit(at, func(r *WorkRequest) { r.Spec.Candidates = append(r.Spec.Candidates, 1) }),
		"threads":      edit(at, func(r *WorkRequest) { r.Spec.Candidates[maxCandidates-1]++ }),
		"zero-threads": edit(at, func(r *WorkRequest) { r.Spec.Candidates[0] = 0 }),
		"max-dim":      edit(at, func(r *WorkRequest) { r.Shapes[maxUnitShapes-1].K++ }),
		"zero-dim":     edit(at, func(r *WorkRequest) { r.Shapes[0].N = 0 }),
		"cap":          edit(atCap(), func(r *WorkRequest) { r.Shapes[maxUnitShapes-1] = overCapShape }),
		"zero-count":   edit(at, func(r *WorkRequest) { r.Shapes = nil }),
		// A SYRK shape with N ≠ M: 0.6 MB of operands as sent, but SYRK's
		// benchmark sizes C from M alone and would allocate 22 GB.
		"canonical": edit(atCap(), func(r *WorkRequest) {
			r.Spec.Op = "syrk"
			r.Shapes = []sampling.Shape{{M: 74000, K: 1, N: 1}}
		}),
	}
}

// TestWorkerEndpoints covers the protocol edges: bad session fingerprints,
// -sim enforcement, the bounds on what one request may ask, the body bound,
// and the routes the worker does not have.
func TestWorkerEndpoints(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	_, srv := startWorker(t, WorkerOptions{Name: "w", RequireSim: true})
	work := testWork(t, gcfg, spec, Unit{ID: 0, Start: 0, Count: 2})

	// Tampered session fingerprint.
	bad := work
	bad.Spec.Session = "deadbeefdeadbeef"
	if resp := postJSON(t, srv.URL, "/work", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tampered session: HTTP %d, want 400", resp.StatusCode)
	}
	// Real-backend sweep against a -sim worker.
	real := work
	real.Spec.Timer = simtime.RealSpec()
	real.Spec.Session = real.Spec.Fingerprint()
	if resp := postJSON(t, srv.URL, "/work", real); resp.StatusCode != http.StatusConflict {
		t.Errorf("-sim worker accepted a real sweep: HTTP %d, want 409", resp.StatusCode)
	}
	// A valid request executes and answers with its unit.
	resp := postJSON(t, srv.URL, "/work", work)
	var res UnitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("work: HTTP %d (%v)", resp.StatusCode, err)
	}
	if err := checkResult(work.ID, work.Shapes, work.Spec.Candidates, work.Spec.Session, res); err != nil || res.Worker != "w" {
		t.Errorf("work answered %+v: %v", res, err)
	}
	// Each bound + 1 is refused before anything executes...
	for name, req := range overBounds(spec) {
		if resp := postJSON(t, srv.URL, "/work", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s one past its bound: HTTP %d, want 400", name, resp.StatusCode)
		}
	}
	// ...and a request exactly at every bound is accepted. Executing it would
	// time 1024 shapes × 64 candidates × 1000 repetitions, so these rows stop
	// at the acceptance the handler runs first.
	for name, tc := range map[string]struct {
		req        WorkRequest
		requireSim bool
	}{
		"sim":      {atBounds(spec), true},
		"real cap": {atCap(), false},
	} {
		blob, _ := json.Marshal(tc.req)
		if wk, status, err := decodeWork(bytes.NewReader(blob), tc.requireSim); err != nil || len(wk.shapes) != maxUnitShapes {
			t.Errorf("%s request at the bounds: HTTP %d (%v), want accepted", name, status, err)
		}
	}
	// Bodies are read whole to maxBodyBytes and no further: all-blank
	// bodies, and a valid request padded to the bound and one byte past it.
	valid, _ := json.Marshal(work)
	padded := func(size int) string { return string(valid) + strings.Repeat(" ", size-len(valid)) }
	for _, tc := range []struct {
		body string
		want int
	}{
		{strings.Repeat(" ", maxBodyBytes), http.StatusBadRequest},
		{strings.Repeat(" ", maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{padded(maxBodyBytes), http.StatusOK},
		{padded(maxBodyBytes + 1), http.StatusRequestEntityTooLarge},
		{string(valid) + `{}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/work", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("/work with a %d-byte body: HTTP %d, want %d", len(tc.body), resp.StatusCode, tc.want)
		}
	}
	// A unit's result is its /work answer and the spec rides in every
	// request: there is no result, registration, drain or second probe route.
	for _, path := range []string{"/result", "/register", "/drain", "/livez"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestFailedUnitReexecutesOnRedispatch pins that a worker keeps no failed
// result: a failed execution answers 500 with its error, and the next /work
// of the same unit executes it afresh.
func TestFailedUnitReexecutesOnRedispatch(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	var failNext atomic.Bool
	_, srv := startWorker(t, WorkerOptions{Name: "w", execHook: func(int) error {
		if failNext.Swap(false) {
			return errors.New("injected transient failure")
		}
		return nil
	}})
	work := testWork(t, gcfg, spec, Unit{ID: 0, Start: 0, Count: 2})
	failNext.Store(true)
	if resp := postJSON(t, srv.URL, "/work", work); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed execution: HTTP %d, want 500", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL, "/work", work)
	var res UnitResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("re-dispatch of failed unit: HTTP %d (%v): the stale error was replayed", resp.StatusCode, err)
	}
	if res.UnitID != 0 || len(res.Timings) != 2 {
		t.Errorf("re-executed result = unit %d with %d timings, want unit 0 with 2", res.UnitID, len(res.Timings))
	}
}

// TestTwoCoordinatorsShareWorker runs two sweeps with different seeds at
// once against one worker: each request carries its own spec, so neither
// sweep disturbs the other and each matches its single-node gather byte for
// byte.
func TestTwoCoordinatorsShareWorker(t *testing.T) {
	_, srv := startWorker(t, WorkerOptions{Name: "shared"})
	var wg sync.WaitGroup
	for _, seed := range []int64{7, 8} {
		gcfg, spec := testGatherConfig(t, ops.GEMM, 12)
		gcfg.Seed = seed
		want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := fastCoordinator([]string{srv.URL}, spec).Gather(context.Background(), gcfg)
			if err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d: sweep beside another coordinator's differs from single-node gather", seed)
			}
		}()
	}
	wg.Wait()
}

// TestRefusingWorkerRetiredUncharged pins the refusal path: a worker that
// answers /work with a 4xx is retired at its first answer and its unit goes
// back on the queue without counting a retry, so the sweep completes on the
// willing worker; with no willing worker the gather fails.
func TestRefusingWorkerRetiredUncharged(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	// The refusal of a worker that will not run this sweep, such as a -sim
	// worker sent a real-timing sweep.
	refusedOnce := make(chan struct{})
	var refusals atomic.Int64
	refusing := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if refusals.Add(1) == 1 {
			defer close(refusedOnce)
		}
		writeError(rw, http.StatusConflict, "sweep refused")
	}))
	t.Cleanup(refusing.Close)
	_, willing := startWorker(t, WorkerOptions{Name: "willing", execHook: after(refusedOnce)})

	coord := fastCoordinator([]string{refusing.URL, willing.URL}, spec)
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep beside a refusing worker differs from single-node gather")
	}
	if st := coord.Stats(); st.Retries != 0 || st.Dispatched != st.Units {
		t.Errorf("stats = %+v, want every unit dispatched and none charged a retry", st)
	}
	if n := refusals.Load(); n != 1 {
		t.Errorf("the refusing worker was sent %d units, want 1", n)
	}

	_, err = fastCoordinator([]string{refusing.URL}, spec).Gather(context.Background(), gcfg)
	if err == nil || !strings.Contains(err.Error(), "every worker retired") {
		t.Errorf("gather with no willing worker: %v, want every worker retired", err)
	}
}

// TestRepeatedGatherReexecutes pins that a worker keeps no results: a
// second identical sweep against the same long-lived workers re-executes
// every unit instead of replaying the first run's — on a real timing
// backend those would be stale measurements.
func TestRepeatedGatherReexecutes(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6) // 2 units of 3
	w := NewWorker(WorkerOptions{Name: "w"})
	var works atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/work" {
			works.Add(1)
		}
		w.ServeHTTP(rw, r)
	}))
	t.Cleanup(srv.Close)

	coord := fastCoordinator([]string{srv.URL}, spec)
	got1, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := works.Load(); got != 4 {
		t.Errorf("two runs dispatched %d units, want 4 (2 units × 2 runs, no cached replay)", got)
	}
	// On the deterministic simulator the re-executed run still matches.
	if !reflect.DeepEqual(got1, got2) {
		t.Error("re-executed sweep differs on the deterministic backend")
	}
}

// TestCoordinatorNoWorkers errors out early instead of hanging.
func TestCoordinatorNoWorkers(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	if _, err := New(Config{Timer: spec}).Gather(context.Background(), gcfg); err == nil {
		t.Error("no workers should error")
	}
	// All workers unreachable.
	coord := fastCoordinator([]string{"127.0.0.1:1"}, spec)
	coord.tune.http = &http.Client{Timeout: 200 * time.Millisecond}
	if _, err := coord.Gather(context.Background(), gcfg); err == nil {
		t.Error("unreachable workers should error")
	}
}

// tamperingWorker answers its first /work with the real worker's result
// edited by tamper, and every later one faithfully.
type tamperingWorker struct {
	inner    *Worker
	tamper   func(*UnitResult)
	tampered atomic.Bool
}

func (tw *tamperingWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/work" || tw.tampered.Swap(true) {
		tw.inner.ServeHTTP(rw, r)
		return
	}
	rec := httptest.NewRecorder()
	tw.inner.ServeHTTP(rec, r)
	var res UnitResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		panic(err)
	}
	tw.tamper(&res)
	writeJSON(rw, rec.Code, res)
}

// TestMismatchedAnswerRequeued: an answer for another session, another
// shape or another thread count fails checkResult, so the unit is requeued
// and the sweep still completes byte-identical — nothing of the tampered
// answer reaches the training data.
func TestMismatchedAnswerRequeued(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tamper := range map[string]func(*UnitResult){
		"foreign session": func(res *UnitResult) { res.Session = "ffffffffffffffff" },
		"thread count":    func(res *UnitResult) { res.Timings[1].Times[2].Threads++ },
		"shape":           func(res *UnitResult) { res.Timings[0].Shape.K++ },
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(&tamperingWorker{inner: NewWorker(WorkerOptions{Name: "w"}), tamper: tamper})
			t.Cleanup(srv.Close)
			coord := fastCoordinator([]string{srv.URL}, spec)
			got, err := coord.Gather(context.Background(), gcfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("a tampered answer reached the merged sweep")
			}
			if st := coord.Stats(); st.Retries != 1 || st.Dispatched != st.Units {
				t.Errorf("stats = %+v, want the tampered unit requeued once", st)
			}
		})
	}
}

// TestRealSweepOverCapRefused: a real-timing sweep with a shape past the
// 500 MB float32 cap is refused by the coordinator before any dispatch, and
// a worker answers such a request 400 from decodeWork, before executing it.
func TestRealSweepOverCapRefused(t *testing.T) {
	gcfg, _ := testGatherConfig(t, ops.GEMM, 8)
	gcfg.Domain = sampling.DefaultDomain().WithCapMB(100000)
	var works atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		works.Add(1)
		writeError(rw, http.StatusInternalServerError, "nothing should be dispatched")
	}))
	t.Cleanup(srv.Close)
	_, err := New(Config{Workers: []string{srv.URL}, Timer: simtime.RealSpec()}).Gather(context.Background(), gcfg)
	if err == nil || !strings.Contains(err.Error(), "bytes of float32 operands") {
		t.Errorf("real sweep over the cap: %v, want refused for its operand bytes", err)
	}
	if n := works.Load(); n != 0 {
		t.Errorf("%d units dispatched, want none", n)
	}

	for _, name := range []string{"cap", "canonical"} {
		blob, _ := json.Marshal(overBounds(simtime.RealSpec())[name])
		if _, status, err := decodeWork(bytes.NewReader(blob), false); status != http.StatusBadRequest {
			t.Errorf("real /work over the %s bound: HTTP %d (%v), want 400", name, status, err)
		}
	}
}

// TestParentCheckpointResumes pins the checkpoint format across versions:
// testdata/checkpoint-v1.syrk was written by the release before the
// coordinator sent shapes (a 10-shape simulated SYRK sweep, units of 3, one
// worker, on amd64), and it still resumes complete, with nothing dispatched
// and the single-node sweep as its merge: shapes and thread counts exactly,
// seconds to a relative 1e-12, since the simulator's math library rounds
// the last bits differently on other architectures.
func TestParentCheckpointResumes(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.SYRK, 10)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	prefix := copyFixture(t)
	coord := fastCoordinator([]string{"127.0.0.1:1"}, spec)
	coord.cfg.Checkpoint = prefix
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed %d shapes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Shape != w.Shape || len(g.Times) != len(w.Times) {
			t.Fatalf("resumed shape %d = %+v, single-node %+v", i, g, w)
		}
		for j := range g.Times {
			if g.Times[j].Threads != w.Times[j].Threads || math.Abs(g.Times[j].Seconds-w.Times[j].Seconds) > 1e-12*w.Times[j].Seconds {
				t.Fatalf("resumed shape %d time %d = %+v, single-node %+v", i, j, g.Times[j], w.Times[j])
			}
		}
	}
	if st := coord.Stats(); st.Units != 4 || st.Resumed != 4 || st.Dispatched != 0 {
		t.Errorf("stats = %+v, want all 4 units resumed and none dispatched", st)
	}
}

// TestCheckpointRefusesMismatchedLine: a checkpoint line of the right unit
// but another session, shape or thread count fails checkResult, and the
// resume is refused rather than merged.
func TestCheckpointRefusesMismatchedLine(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.SYRK, 10)
	for name, edit := range map[string][2]string{
		"session":      {`{"session":"48cb2dee8c41365b","unit_id":0`, `{"session":"ffffffffffffffff","unit_id":0`},
		"shape":        {`{"M":4065,"K":1128,"N":4065}`, `{"M":4065,"K":1129,"N":4065}`},
		"thread count": {`{"threads":48,`, `{"threads":47,`},
	} {
		t.Run(name, func(t *testing.T) {
			prefix := copyFixture(t)
			blob, err := os.ReadFile(prefix + ".syrk")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(blob, []byte(edit[0])) {
				t.Fatalf("the fixture holds no %s", edit[0])
			}
			blob = bytes.Replace(blob, []byte(edit[0]), []byte(edit[1]), 1)
			if err := os.WriteFile(prefix+".syrk", blob, 0o644); err != nil {
				t.Fatal(err)
			}
			coord := fastCoordinator([]string{"127.0.0.1:1"}, spec)
			coord.cfg.Checkpoint = prefix
			if _, err := coord.Gather(context.Background(), gcfg); err == nil || !strings.Contains(err.Error(), "line 2") {
				t.Errorf("tampered checkpoint: %v, want line 2 refused", err)
			}
		})
	}
}

// copyFixture copies testdata/checkpoint-v1.syrk into a fresh directory and
// returns the checkpoint prefix the coordinator reads it under.
func copyFixture(t *testing.T) string {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "checkpoint-v1.syrk"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "gather.ckpt")
	if err := os.WriteFile(prefix+".syrk", blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return prefix
}
