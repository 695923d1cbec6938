package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// fastCoordinator returns a Coordinator tuned for test latencies.
func fastCoordinator(workers []string, spec simtime.Spec) *Coordinator {
	c := New(Config{Workers: workers, Timer: spec})
	c.tune.unitShapes = 3
	c.tune.pollInterval = 2 * time.Millisecond
	c.tune.unitTimeout = 5 * time.Second
	return c
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

			_, s1 := startWorker(t, WorkerOptions{Name: "w1"})
			_, s2 := startWorker(t, WorkerOptions{Name: "w2"})
			coord := fastCoordinator([]string{s1.URL, s2.URL}, spec)
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
			if st.WorkersRegistered != 2 {
				t.Errorf("WorkersRegistered = %d, want 2", st.WorkersRegistered)
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
		execHook: func(Unit) { time.Sleep(100 * time.Millisecond) },
	})
	var kill sync.Once
	var victimSrv *httptest.Server
	victimSrv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		victim.ServeHTTP(rw, r)
		if r.URL.Path == "/work" {
			kill.Do(func() {
				go func() {
					time.Sleep(20 * time.Millisecond) // mid-unit: exec sleeps 100ms
					victimSrv.CloseClientConnections()
					victimSrv.Close()
				}()
			})
		}
	}))
	t.Cleanup(func() {
		defer func() { recover() }() // double-Close on the happy path
		victimSrv.Close()
	})
	_, healthy := startWorker(t, WorkerOptions{Name: "healthy"})

	coord := fastCoordinator([]string{victimSrv.URL, healthy.URL}, spec)
	coord.tune.workerFailureLimit = 2
	// Transport failures during polling retry until the unit deadline, so
	// keep it short: the dead victim's in-flight unit must requeue fast.
	coord.tune.unitTimeout = 700 * time.Millisecond
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

	_, slow := startWorker(t, WorkerOptions{
		Name:     "slow",
		execHook: func(Unit) { time.Sleep(500 * time.Millisecond) },
	})
	_, fast := startWorker(t, WorkerOptions{Name: "fast"})

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

// byzantineWorker implements the worker protocol but answers every /result
// poll with a replay of the first unit it completed — the duplicate-result
// fault. The coordinator must reject the mismatched replays and reassign.
type byzantineWorker struct {
	inner  *Worker
	mu     sync.Mutex
	replay *UnitResult
}

func (b *byzantineWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/result" {
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
				seen.Store(req.Unit.ID, true)
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
	if st := coord1.Stats(); st.Units != 5 || st.WorkersRegistered != 1 || st.Retries < 1 {
		t.Errorf("failed-run stats = %+v, want 5 units, 1 worker, >=1 retry", st)
	}

	blob, err := os.ReadFile(ckpt + ".gemm")
	if err != nil {
		t.Fatal(err)
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

// blippyWorker fails the first two /result polls at the transport level
// (connection closed mid-request) — a network blip, not a worker failure.
type blippyWorker struct {
	inner *Worker
	blips atomic.Int64
}

func (b *blippyWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/result" && b.blips.Add(1) <= 2 {
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

// TestTransientPollBlipDoesNotDiscardUnit pins the poll-retry contract: a
// dropped connection during /result polling must not throw away the
// in-flight unit or count toward retiring the worker.
func TestTransientPollBlipDoesNotDiscardUnit(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	blippy := &blippyWorker{inner: NewWorker(WorkerOptions{Name: "blippy"})}
	srv := httptest.NewServer(blippy)
	t.Cleanup(srv.Close)

	coord := fastCoordinator([]string{srv.URL}, spec)
	coord.tune.workerFailureLimit = 1 // a single counted failure would retire the only worker
	got, err := coord.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep with poll blips differs from single-node gather")
	}
	if st := coord.Stats(); st.Retries != 0 {
		t.Errorf("poll blips caused %d retries; units should not have been discarded", st.Retries)
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
// polls each unit to its end before dispatching the next to that worker,
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
		_, srv := startWorker(t, WorkerOptions{Name: "w", execHook: func(Unit) {
			storeMax(peak, cur.Add(1))
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
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

// endlessResult answers every /result poll with 200 and a JSON body that
// never ends, delegating everything else to a real worker. It records the
// most bytes one answer got written before the coordinator hung up, and
// stops by itself at 64 MiB.
type endlessResult struct {
	inner   *Worker
	maxSent atomic.Int64
}

func (e *endlessResult) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/result" {
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

// TestEndlessResultBodyBounded: the coordinator reads a worker's /result
// through a limit derived from the unit, so a worker streaming a body
// without end fails its unit with a decode error after that limit (plus
// whatever the transport buffers), and the sweep completes elsewhere.
func TestEndlessResultBodyBounded(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 9)
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	endless := &endlessResult{inner: NewWorker(WorkerOptions{Name: "endless"})}
	endlessSrv := httptest.NewUnstartedServer(endless)
	// A fixed send buffer: left to autotune, loopback TCP lets the server
	// queue megabytes before the coordinator's hang-up reaches it.
	endlessSrv.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if tc, ok := c.(*net.TCPConn); ok && s == http.StateNew {
			tc.SetWriteBuffer(16 << 10)
		}
	}
	endlessSrv.Start()
	t.Cleanup(endlessSrv.Close)
	_, healthy := startWorker(t, WorkerOptions{Name: "healthy"})

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

// TestWorkerEndpoints covers the protocol edges: bad session fingerprints,
// -sim enforcement, drain refusing work, unknown results.
func TestWorkerEndpoints(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	sweep := SweepSpec{
		Op:         "gemm",
		Timer:      spec,
		Domain:     gcfg.Domain,
		Seed:       gcfg.Seed,
		Candidates: gcfg.Candidates,
		Iters:      gcfg.Iters,
	}
	sweep.Session = sweep.Fingerprint()

	_, srv := startWorker(t, WorkerOptions{Name: "w", RequireSim: true})
	post := func(path string, body any) *http.Response {
		t.Helper()
		blob, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Tampered session fingerprint.
	bad := sweep
	bad.Session = "deadbeefdeadbeef"
	if resp := post("/register", bad); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("tampered session: HTTP %d, want 400", resp.StatusCode)
	}
	// Real-backend sweep against a -sim worker.
	real := sweep
	real.Timer = simtime.RealSpec()
	real.Session = real.Fingerprint()
	if resp := post("/register", real); resp.StatusCode != http.StatusConflict {
		t.Errorf("-sim worker accepted a real sweep: HTTP %d, want 409", resp.StatusCode)
	}
	// Work before registration.
	if resp := post("/work", WorkRequest{Session: sweep.Session, Unit: Unit{ID: 0, Count: 1}}); resp.StatusCode != http.StatusConflict {
		t.Errorf("work before register: HTTP %d, want 409", resp.StatusCode)
	}
	// Happy registration.
	if resp := post("/register", sweep); resp.StatusCode != http.StatusOK {
		t.Errorf("register: HTTP %d, want 200", resp.StatusCode)
	}
	// Bodies are read to maxBodyBytes and no further: all-blank bodies, so
	// the decoder must read every byte looking for a value.
	for _, path := range []string{"/register", "/work"} {
		for _, tc := range []struct{ size, want int }{
			{maxBodyBytes, http.StatusBadRequest},
			{maxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(strings.Repeat(" ", tc.size)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s with a %d-byte body: HTTP %d, want %d", path, tc.size, resp.StatusCode, tc.want)
			}
		}
	}
	// Unknown unit result.
	resp, err := http.Get(srv.URL + "/result?session=" + sweep.Session + "&id=42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown unit: HTTP %d, want 404", resp.StatusCode)
	}
	// Drain refuses new work.
	if resp := post("/drain", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("drain: HTTP %d, want 200", resp.StatusCode)
	}
	if resp := post("/work", WorkRequest{Session: sweep.Session, Unit: Unit{ID: 0, Count: 1}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("work while draining: HTTP %d, want 503", resp.StatusCode)
	}
	// Healthz reports draining.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health StatusResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || health.Status != "draining" {
		t.Errorf("healthz after drain = %+v", health)
	}
}

// TestFailedUnitReexecutesOnRedispatch pins the retry contract: a unit
// whose previous execution FAILED on this worker must run again when
// re-dispatched — a cached error replayed as "done" would burn the
// coordinator's retry budget without any actual retry.
func TestFailedUnitReexecutesOnRedispatch(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 6)
	sweep := SweepSpec{
		Op:         "gemm",
		Timer:      spec,
		Domain:     gcfg.Domain,
		Seed:       gcfg.Seed,
		Candidates: gcfg.Candidates,
		Iters:      gcfg.Iters,
	}
	sweep.Session = sweep.Fingerprint()

	w, srv := startWorker(t, WorkerOptions{Name: "w"})
	post := func(path string, body any) int {
		t.Helper()
		blob, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/register", sweep); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	// Simulate a transient failure having been recorded for unit 0.
	w.mu.Lock()
	w.units[0] = &unitState{status: statusDone, err: "injected transient failure"}
	w.mu.Unlock()

	if code := post("/work", WorkRequest{Session: sweep.Session, Unit: Unit{ID: 0, Start: 0, Count: 2}}); code != http.StatusAccepted {
		t.Fatalf("re-dispatch of failed unit: HTTP %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/result?session=" + sweep.Session + "&id=0")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break // re-executed and succeeded
		}
		if code != http.StatusAccepted {
			t.Fatalf("re-dispatched unit polled HTTP %d: the stale error was replayed", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("re-dispatched unit never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRepeatedGatherReexecutes pins the run-nonce contract: a second
// identical sweep against the same long-lived workers re-executes every
// unit instead of replaying the first run's cached results — on a real
// timing backend those would be stale measurements.
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

// TestWorkerUnfetchedTracking pins the drain-linger primitive: a completed
// result counts as unfetched until /result serves it.
func TestWorkerUnfetchedTracking(t *testing.T) {
	gcfg, spec := testGatherConfig(t, ops.GEMM, 4)
	sweep := SweepSpec{
		Op: "gemm", Timer: spec, Domain: gcfg.Domain, Seed: gcfg.Seed,
		Candidates: gcfg.Candidates, Iters: gcfg.Iters,
	}
	sweep.Session = sweep.Fingerprint()
	w, srv := startWorker(t, WorkerOptions{Name: "w"})

	blob, _ := json.Marshal(sweep)
	resp, err := http.Post(srv.URL+"/register", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	blob, _ = json.Marshal(WorkRequest{Session: sweep.Session, Unit: Unit{ID: 0, Start: 0, Count: 2}})
	resp, err = http.Post(srv.URL+"/work", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for w.Unfetched() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unit never reached the unfetched-done state")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err = http.Get(srv.URL + "/result?session=" + sweep.Session + "&id=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", resp.StatusCode)
	}
	if n := w.Unfetched(); n != 0 {
		t.Errorf("Unfetched after serving the result = %d, want 0", n)
	}
	// WaitFetched returns immediately once everything is fetched.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := w.WaitFetched(ctx); err != nil {
		t.Errorf("WaitFetched = %v", err)
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
