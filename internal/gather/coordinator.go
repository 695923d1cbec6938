package gather

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// Config configures a Coordinator.
type Config struct {
	// Workers lists worker daemon addresses ("host:port" or full URLs).
	Workers []string
	// Timer describes the timing backend every worker must build — the
	// wire form of the timer the single-node path would use locally.
	Timer simtime.Spec
	// Checkpoint is the path prefix of the resumable JSONL checkpoint;
	// the op's wire name is appended (e.g. "gather.ckpt.gemm"), since
	// core.Train gathers one sweep per op through the same Coordinator.
	// Empty disables checkpointing.
	Checkpoint string
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// tuning is the coordinator's dispatch policy. Every install runs with the
// values New sets; tests in this package overwrite them for test latencies.
type tuning struct {
	// unitShapes is the number of sweep shapes per work unit. Smaller units
	// spread better and lose less work on failure; larger units amortise
	// dispatch overhead.
	unitShapes int
	// unitTimeout bounds one unit's POST /work on one worker — dispatch,
	// execution and answer — before the unit is requeued.
	unitTimeout time.Duration
	// maxUnitRetries bounds reassignments per unit before the whole gather
	// fails.
	maxUnitRetries int
	// workerFailureLimit retires a worker after this many consecutive
	// failed units.
	workerFailureLimit int
	// http carries every request. It has no overall timeout: a unit's
	// answer legitimately takes as long as the unit's timing work.
	http *http.Client
}

// Stats summarises one completed (or failed) Gather run.
type Stats struct {
	// Units is the size of the sweep plan.
	Units int
	// Resumed counts units satisfied by the checkpoint without dispatch.
	Resumed int
	// Dispatched counts units a worker answered with a matching result.
	Dispatched int
	// Retries counts units requeued after a failed or timed-out /work.
	Retries int
	// Duplicates counts results dropped by the merge dedup (a unit
	// completing on two workers after a reassignment race).
	Duplicates int
}

// Coordinator shards a timing sweep across a fleet of Workers. It
// implements core.Gatherer, so it plugs straight into core.TrainConfig; the
// merged sweep is ordered by sample index and therefore identical to the
// single-node gather for a deterministic timer.
type Coordinator struct {
	cfg  Config
	tune tuning

	mu   sync.Mutex
	last Stats
}

// New returns a Coordinator over the config.
func New(cfg Config) *Coordinator {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{cfg: cfg, tune: tuning{
		unitShapes:         4,
		unitTimeout:        5 * time.Minute,
		maxUnitRetries:     8,
		workerFailureLimit: 3,
		http:               &http.Client{},
	}}
}

// Stats returns the statistics of the most recent Gather run.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// pendingUnit is one queued unit with its attempt count.
type pendingUnit struct {
	unit  Unit
	tries int
}

// run is the shared state of one Gather execution.
type run struct {
	ctx    context.Context
	cancel context.CancelFunc
	// queue holds the units waiting for a worker. Its capacity is the
	// number of units to dispatch and each of them is queued, in flight or
	// merged, so a requeue never blocks.
	queue chan pendingUnit

	fatalOnce sync.Once
	fatalErr  error

	retries    atomic.Int64
	dispatched atomic.Int64
	duplicates atomic.Int64
}

// fail records the first fatal error and stops every loop.
func (r *run) fail(err error) {
	r.fatalOnce.Do(func() {
		r.fatalErr = err
		r.cancel()
	})
}

// Gather implements core.Gatherer: it shards cfg's sweep over the worker
// fleet and returns the merged timings in sample order. cfg.Timer is
// ignored — the workers build their backend from the coordinator's wire
// Spec instead. Cancelling ctx stops dispatch and fails the sweep; the
// checkpoint keeps everything merged so far, so a cancelled gather
// resumes where it stopped.
func (c *Coordinator) Gather(ctx context.Context, gcfg core.GatherConfig) ([]core.ShapeTimings, error) {
	if len(c.cfg.Workers) == 0 {
		return nil, fmt.Errorf("gather: no workers configured")
	}
	if gcfg.NumShapes < 1 {
		return nil, fmt.Errorf("gather: NumShapes %d < 1", gcfg.NumShapes)
	}
	if !gcfg.Op.Valid() {
		return nil, fmt.Errorf("gather: unknown op %v", gcfg.Op)
	}
	spec := SweepSpec{
		Op:         gcfg.Op.String(),
		Timer:      c.cfg.Timer,
		Domain:     gcfg.Domain,
		Seed:       gcfg.Seed,
		Candidates: append([]int(nil), gcfg.Candidates...),
		Iters:      gcfg.Iters,
	}
	spec.Session = spec.Fingerprint()
	if _, _, err := spec.validate(); err != nil {
		return nil, err
	}
	// The sweep's one draw, the single-node gather's own call: units are
	// slices of it, so the merge in unit order is the single-node sweep.
	sample, err := core.SampleOpShapes(gcfg.Domain, gcfg.Seed, gcfg.Op, gcfg.NumShapes)
	if err != nil {
		return nil, err
	}
	units := planUnits(gcfg.NumShapes, c.tune.unitShapes)
	// A sweep no worker would accept fails here, before any dispatch.
	for _, u := range units {
		if err := (WorkRequest{Spec: spec, Unit: u, Shapes: u.shapes(sample)}).bounded(); err != nil {
			return nil, err
		}
	}

	stats := Stats{Units: len(units)}
	// Record the run's statistics on every exit path — a failed sweep's
	// counters (retries, resumed units) are exactly what the operator needs
	// to diagnose it.
	var r *run
	defer func() {
		if r != nil {
			stats.Dispatched = int(r.dispatched.Load())
			stats.Retries = int(r.retries.Load())
			stats.Duplicates = int(r.duplicates.Load())
		}
		c.mu.Lock()
		c.last = stats
		c.mu.Unlock()
	}()

	ckPath := ""
	if c.cfg.Checkpoint != "" {
		ckPath = c.cfg.Checkpoint + "." + spec.Op
	}
	completed, ck, err := openCheckpoint(ckPath, spec, units, sample, c.cfg.Logf)
	if err != nil {
		return nil, err
	}
	defer ck.close()
	stats.Resumed = len(completed)

	// A fully-checkpointed sweep needs no fleet at all — re-running the
	// install after a post-gather crash must not depend on the workers
	// still being up.
	if len(completed) == len(units) {
		c.cfg.Logf("checkpoint already complete: %d units, nothing to dispatch", len(units))
		return assemble(units, completed, gcfg.NumShapes)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	r = &run{ctx: ctx, cancel: cancel, queue: make(chan pendingUnit, len(units)-len(completed))}
	for _, u := range units {
		if _, done := completed[u.ID]; !done {
			r.queue <- pendingUnit{unit: u}
		}
	}

	results := make(chan UnitResult, len(c.cfg.Workers))
	var wg sync.WaitGroup
	for _, addr := range c.cfg.Workers {
		base := normalizeWorkerURL(addr)
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			c.workerLoop(r, base, spec, sample, results)
		}(base)
	}
	workersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(workersDone)
	}()

	// Merge loop: first result per unit wins; late duplicates (a unit
	// reassigned after a timeout that then completes twice) are dropped, so
	// every unit is accounted for exactly once.
	outstanding := len(units) - len(completed)
	merge := func(res UnitResult) error {
		if !mergeResult(completed, res) {
			r.duplicates.Add(1)
			return nil
		}
		outstanding--
		if err := ck.append(res); err != nil {
			return err
		}
		c.cfg.Logf("unit %d/%d merged (worker %s, %d remaining)",
			res.UnitID+1, len(units), res.Worker, outstanding)
		return nil
	}
	for outstanding > 0 {
		select {
		case res := <-results:
			if err := merge(res); err != nil {
				r.fail(err)
				wg.Wait()
				return nil, err
			}
		case <-workersDone:
			// Drain results delivered just before the last loop exited —
			// a retiring worker may have buffered the final unit.
			for drained := true; drained && outstanding > 0; {
				select {
				case res := <-results:
					if err := merge(res); err != nil {
						return nil, err
					}
				default:
					drained = false
				}
			}
			if outstanding > 0 {
				if r.fatalErr != nil {
					return nil, r.fatalErr
				}
				return nil, fmt.Errorf("gather: every worker retired with %d of %d units outstanding",
					outstanding, len(units))
			}
		}
	}
	cancel()
	wg.Wait()

	return assemble(units, completed, gcfg.NumShapes)
}

// assemble concatenates the completed units in sample order: by
// construction this is the exact sequence the single-node sweep walks.
func assemble(units []Unit, completed map[int][]core.ShapeTimings, numShapes int) ([]core.ShapeTimings, error) {
	out := make([]core.ShapeTimings, 0, numShapes)
	for _, u := range units {
		timings := completed[u.ID]
		if len(timings) != u.Count {
			return nil, fmt.Errorf("gather: unit %d merged %d timings, want %d", u.ID, len(timings), u.Count)
		}
		out = append(out, timings...)
	}
	return out, nil
}

// mergeResult records one unit result into completed and reports whether it
// was fresh. A false return is a duplicate (the unit already completed on
// another worker, or came out of the checkpoint) and must be dropped — the
// merge invariant is every unit accounted for exactly once.
func mergeResult(completed map[int][]core.ShapeTimings, res UnitResult) bool {
	if _, dup := completed[res.UnitID]; dup {
		return false
	}
	completed[res.UnitID] = res.Timings
	return true
}

// workerLoop claims units for one worker until the run ends, the worker
// refuses the sweep, or it accumulates too many consecutive failures. A
// refusal (a 4xx answer other than 429: the worker understood the request
// and will not run it) retires the worker at once and requeues the unit
// without charging it a retry, as a worker that refuses one unit of a sweep
// refuses them all. Each unit is one request answered with its result, so a
// worker has one unit of this run in flight (two only while a timed-out one
// still holds the worker's execution lock).
// With the queue empty it waits, because another worker may still fail and
// requeue.
func (c *Coordinator) workerLoop(r *run, base string, spec SweepSpec, sample []sampling.Shape, results chan<- UnitResult) {
	failures := 0
	for {
		var pu pendingUnit
		select {
		case pu = <-r.queue:
		case <-r.ctx.Done():
			return
		}
		res, err := c.runUnit(r.ctx, base, WorkRequest{Spec: spec, Unit: pu.unit, Shapes: pu.unit.shapes(sample)})
		if err != nil {
			if r.ctx.Err() != nil {
				return
			}
			var refused *refusal
			if errors.As(err, &refused) {
				c.cfg.Logf("worker %s refused the sweep, retired: %v", base, err)
				r.queue <- pu
				return
			}
			c.cfg.Logf("worker %s: unit %d attempt %d failed: %v", base, pu.unit.ID, pu.tries+1, err)
			c.requeue(r, pu, base, err)
			failures++
			if failures >= c.tune.workerFailureLimit {
				c.cfg.Logf("worker %s retired after %d consecutive failures", base, failures)
				return
			}
			continue
		}
		failures = 0
		r.dispatched.Add(1)
		select {
		case results <- *res:
		case <-r.ctx.Done():
			return
		}
	}
}

// requeue puts a failed unit back on the queue, failing the run when the
// unit has exhausted its retries.
func (c *Coordinator) requeue(r *run, pu pendingUnit, base string, err error) {
	pu.tries++
	if pu.tries >= c.tune.maxUnitRetries {
		r.fail(fmt.Errorf("gather: unit %d failed %d times (last worker %s): %w", pu.unit.ID, pu.tries, base, err))
		return
	}
	r.retries.Add(1)
	r.queue <- pu
}

// resultLimit bounds the /work answer the coordinator reads for a unit of
// count shapes timed at the given number of candidates: 4 KiB for the
// envelope (session, ids, a worker name of up to some hundred characters),
// then 128 bytes per shape and 128 per candidate timing. With 20-character
// integers and 24-character float64s, a shape entry with its keys, brackets
// and comma encodes in at most 98 bytes and a timing in 68.
func resultLimit(count, candidates int) int64 {
	return 4<<10 + int64(count)*128*int64(1+candidates)
}

// runUnit executes one unit on one worker: one POST /work of the request
// under the unit timeout, answered with the unit's result. Any failure — the
// transport, a refusal, a failed execution, a torn answer or one that fails
// checkResult — fails this attempt, and the caller requeues the unit; a
// refusal comes back as a *refusal.
func (c *Coordinator) runUnit(ctx context.Context, base string, work WorkRequest) (*UnitResult, error) {
	u := work.Unit
	ctx, cancel := context.WithTimeout(ctx, c.tune.unitTimeout)
	defer cancel()
	blob, err := json.Marshal(work)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/work", bytes.NewReader(blob))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.tune.http.Do(req)
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("unit %d timed out after %v on %s", u.ID, c.tune.unitTimeout, base)
		}
		return nil, err
	}
	defer drainAndClose(resp)
	if resp.StatusCode != http.StatusOK {
		err := httpError(resp)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, &refusal{err}
		}
		return nil, err
	}
	res := &UnitResult{}
	if err := json.NewDecoder(io.LimitReader(resp.Body, resultLimit(u.Count, len(work.Spec.Candidates)))).Decode(res); err != nil {
		return nil, fmt.Errorf("decode result: %w", err)
	}
	if err := checkResult(u, work.Shapes, work.Spec.Candidates, work.Spec.Session, *res); err != nil {
		return nil, fmt.Errorf("worker %s: %w", base, err)
	}
	return res, nil
}

// refusal is a worker's 4xx answer to /work, 429 excepted.
type refusal struct{ err error }

func (r *refusal) Error() string { return r.err.Error() }

// drainAndClose consumes a bounded remainder of the response body before
// closing it, so the keep-alive connection returns to the pool instead of
// being torn down — with one request per unit against every worker, leaked
// connections would otherwise accumulate for the whole sweep.
func drainAndClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
}

// httpError converts a non-success response into an error carrying the
// worker's JSON error message when present.
func httpError(resp *http.Response) error {
	var apiErr apiError
	blob, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(blob, &apiErr) == nil && apiErr.Error != "" {
		return fmt.Errorf("%s (HTTP %d)", apiErr.Error, resp.StatusCode)
	}
	return fmt.Errorf("HTTP %d", resp.StatusCode)
}

// normalizeWorkerURL accepts "host:port" or a full URL and returns a base
// URL without a trailing slash.
func normalizeWorkerURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}

var _ core.Gatherer = (*Coordinator)(nil)
