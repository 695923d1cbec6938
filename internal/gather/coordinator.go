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
	"repro/internal/retry"
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
	// unitTimeout bounds one unit's dispatch-to-result wall time on one
	// worker before the unit is reassigned.
	unitTimeout time.Duration
	// pollInterval is the result polling period.
	pollInterval time.Duration
	// maxUnitRetries bounds reassignments per unit before the whole gather
	// fails.
	maxUnitRetries int
	// workerFailureLimit retires a worker after this many consecutive
	// failed units.
	workerFailureLimit int
	http               *http.Client
	// retry is the transport-level retry policy for register and dispatch
	// POSTs. Result polling derives its own policy from pollInterval and
	// unitTimeout instead — the poll cadence is the retry cadence.
	retry retry.Policy
}

// Stats summarises one completed (or failed) Gather run.
type Stats struct {
	// Units is the size of the sweep plan.
	Units int
	// Resumed counts units satisfied by the checkpoint without dispatch.
	Resumed int
	// Dispatched counts unit executions successfully fetched from workers.
	Dispatched int
	// Retries counts re-dispatches after a worker failure or timeout.
	Retries int
	// Duplicates counts results dropped by the merge dedup (a unit
	// completing on two workers after a reassignment race).
	Duplicates int
	// WorkersRegistered counts workers that accepted the sweep spec.
	WorkersRegistered int
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
		pollInterval:       50 * time.Millisecond,
		maxUnitRetries:     8,
		workerFailureLimit: 3,
		http:               &http.Client{Timeout: 15 * time.Second},
		retry:              retry.Policy{MaxAttempts: 3, Initial: 50 * time.Millisecond, Max: 500 * time.Millisecond},
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

// unitQueue is the mutex-guarded dispatch queue. A plain slice under a lock
// (not a channel): failed units are requeued by worker loops while the
// merger holds no reference to the queue, and a bounded channel could
// deadlock a requeue.
type unitQueue struct {
	mu      sync.Mutex
	pending []pendingUnit
}

func (q *unitQueue) push(pu pendingUnit) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.pending = append(q.pending, pu)
}

func (q *unitQueue) pop() (pendingUnit, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return pendingUnit{}, false
	}
	pu := q.pending[0]
	q.pending = q.pending[1:]
	return pu, true
}

// run is the shared state of one Gather execution.
type run struct {
	ctx    context.Context
	cancel context.CancelFunc
	queue  unitQueue

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
	if len(gcfg.Candidates) == 0 {
		return nil, fmt.Errorf("gather: no candidate thread counts")
	}
	if !gcfg.Op.Valid() {
		return nil, fmt.Errorf("gather: unknown op %v", gcfg.Op)
	}
	if _, err := sampling.NewSampler(gcfg.Domain, gcfg.Seed); err != nil {
		return nil, err
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
	spec.Run = newRunID()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	units := planUnits(gcfg.NumShapes, c.tune.unitShapes)
	stats := Stats{Units: len(units)}
	// Record the run's statistics on every exit path — a failed sweep's
	// counters (retries, resumed units, registered workers) are exactly
	// what the operator needs to diagnose it.
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
	completed, ck, err := openCheckpoint(ckPath, spec, units, gcfg.NumShapes, c.cfg.Logf)
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

	// Register the fleet; workers that refuse or cannot be reached (after
	// the transport retry budget) are dropped (and logged) — the sweep
	// needs at least one.
	var live []string
	for _, addr := range c.cfg.Workers {
		base := normalizeWorkerURL(addr)
		var reg RegisterResponse
		if err := c.postJSON(ctx, base+"/register", spec, &reg); err != nil {
			c.cfg.Logf("worker %s: register failed: %v", base, err)
			continue
		}
		c.cfg.Logf("worker %s registered (%s, backend %s)", base, reg.Worker, reg.Backend)
		live = append(live, base)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("gather: none of the %d configured workers accepted the sweep", len(c.cfg.Workers))
	}
	stats.WorkersRegistered = len(live)

	r = &run{ctx: ctx, cancel: cancel}
	for _, u := range units {
		if _, done := completed[u.ID]; !done {
			r.queue.push(pendingUnit{unit: u})
		}
	}

	results := make(chan UnitResult, len(live))
	var wg sync.WaitGroup
	for _, base := range live {
		wg.Add(1)
		go func(base string) {
			defer wg.Done()
			c.workerLoop(r, base, spec, results)
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

// workerLoop claims units for one worker until the run ends or the worker
// accumulates too many consecutive failures. It polls each unit to its end
// before claiming the next, so a worker has one unit of this run in flight
// (two only while a timed-out one still holds the worker's execution lock).
func (c *Coordinator) workerLoop(r *run, base string, spec SweepSpec, results chan<- UnitResult) {
	failures := 0
	for {
		if r.ctx.Err() != nil {
			return
		}
		pu, ok := r.queue.pop()
		if !ok {
			// Queue drained but other workers may still fail and requeue;
			// idle until the run finishes or work reappears.
			select {
			case <-r.ctx.Done():
				return
			case <-time.After(c.tune.pollInterval):
			}
			continue
		}
		res, err := c.runUnit(r.ctx, base, spec, pu.unit)
		if err != nil {
			if r.ctx.Err() != nil {
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
	r.queue.push(pu)
}

// errUnitPending is the retryable sentinel one /result poll returns while
// the worker is still executing — the retry loop keeps polling on it.
var errUnitPending = errors.New("unit still executing")

// resultLimit bounds the /result body the coordinator reads for a unit of
// count shapes timed at the given number of candidates: 4 KiB for the
// envelope (session, ids, a worker name of up to some hundred characters),
// then 128 bytes per shape and 128 per candidate timing. With 20-character
// integers and 24-character float64s, a shape entry with its keys, brackets
// and comma encodes in at most 98 bytes and a timing in 68.
func resultLimit(count, candidates int) int64 {
	return 4<<10 + int64(count)*128*int64(1+candidates)
}

// runUnit dispatches one unit to one worker and polls for its result until
// the unit timeout. The poll loop is a retry.Do with a fixed backoff equal
// to the poll interval, unbounded attempts, and the unit timeout as the
// budget — the single shared retry implementation instead of a bespoke loop.
func (c *Coordinator) runUnit(ctx context.Context, base string, spec SweepSpec, u Unit) (*UnitResult, error) {
	if err := c.postJSON(ctx, base+"/work", WorkRequest{Session: spec.Session, Unit: u}, nil); err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	url := fmt.Sprintf("%s/result?session=%s&id=%d", base, spec.Session, u.ID)
	limit := resultLimit(u.Count, len(spec.Candidates))
	poll := retry.Policy{
		MaxAttempts: -1,
		Initial:     c.tune.pollInterval,
		Max:         c.tune.pollInterval,
		Multiplier:  1,
		Budget:      c.tune.unitTimeout,
	}
	res, err := retry.DoValue(ctx, poll, func(ctx context.Context) (*UnitResult, error) {
		res, pending, err := c.getResult(ctx, url, limit)
		if err != nil {
			// Definitive worker answers (404/409/500, torn result bodies)
			// fail the unit now; only "still executing" keeps polling.
			return nil, retry.Fatal(err)
		}
		if pending {
			return nil, errUnitPending
		}
		return res, nil
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("unit %d timed out after %v on %s", u.ID, c.tune.unitTimeout, base)
		}
		return nil, err
	}
	// Start matters as much as ID and Count: a result timing the wrong
	// slice of the sample stream would merge into the wrong sweep positions
	// and silently corrupt the trained model.
	if res.UnitID != u.ID || res.Start != u.Start || res.Count != u.Count || len(res.Timings) != u.Count {
		return nil, fmt.Errorf("worker %s answered unit %d [%d,%d) with mismatched result (unit %d [%d,%d), %d timings)",
			base, u.ID, u.Start, u.Start+u.Count, res.UnitID, res.Start, res.Start+res.Count, len(res.Timings))
	}
	return res, nil
}

// getResult performs one poll. pending is true while the worker is still
// executing the unit — including on a transport failure: the unit may be
// minutes into real timing work, and discarding it over one dropped
// connection (or retiring the worker over a brief coordinator-side network
// blip) wastes it all. Polling keeps going until the unit's deadline; a
// permanently dead worker is caught there, and definitively by its next
// dispatch. Definitive worker answers (404/409/500) still fail the unit, and
// so does a result body longer than limit bytes.
func (c *Coordinator) getResult(ctx context.Context, url string, limit int64) (res *UnitResult, pending bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.tune.http.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// The unit budget (or the run) expired mid-request; let the
			// retry loop translate it rather than masking it as a blip.
			return nil, true, nil
		}
		c.cfg.Logf("poll %s: %v (retrying until the unit deadline)", url, err)
		return nil, true, nil
	}
	defer drainAndClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		res = &UnitResult{}
		if err := json.NewDecoder(io.LimitReader(resp.Body, limit)).Decode(res); err != nil {
			return nil, false, fmt.Errorf("decode result: %w", err)
		}
		return res, false, nil
	case http.StatusAccepted:
		return nil, true, nil
	default:
		return nil, false, httpError(resp)
	}
}

// postJSON issues one POST under the transport retry policy and decodes the
// answer into out (when non-nil). 2xx statuses succeed; transport errors and
// 5xx answers retry (the worker's /work handler is idempotent for
// re-dispatch, so a duplicate POST is safe); other statuses fail
// immediately — the worker understood the request and refused it.
func (c *Coordinator) postJSON(ctx context.Context, url string, body, out any) error {
	blob, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	p := c.tune.retry
	p.OnRetry = func(attempt int, err error, backoff time.Duration) {
		c.cfg.Logf("POST %s: attempt %d failed (%v), retrying in %v", url, attempt, err, backoff)
	}
	return retry.Do(ctx, p, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(blob))
		if err != nil {
			return retry.Fatalf("build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.tune.http.Do(req)
		if err != nil {
			return err
		}
		defer drainAndClose(resp)
		if resp.StatusCode < 200 || resp.StatusCode > 299 {
			err := httpError(resp)
			if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
				return err
			}
			return retry.Fatal(err)
		}
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(out); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		return nil
	})
}

// drainAndClose consumes a bounded remainder of the response body before
// closing it, so the keep-alive connection returns to the pool instead of
// being torn down — with per-unit polling against every worker, leaked
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

// runCounter disambiguates run IDs minted within one nanosecond tick.
var runCounter atomic.Int64

// newRunID mints a nonce unique per Gather invocation.
func newRunID() string {
	return fmt.Sprintf("%x-%x", time.Now().UnixNano(), runCounter.Add(1))
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
