package gather

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name is reported in every unit result (diagnostics).
	Name string
	// RequireSim refuses work asking for the real-timing backend — the
	// cmd/adsala-worker -sim guard, so a CI or test worker can never be
	// talked into wall-clock timing.
	RequireSim bool
	// DebugLogf receives per-unit progress lines — one per executed unit,
	// noisy on big sweeps; nil discards them.
	DebugLogf func(format string, args ...any)
	// execHook, when non-nil, runs first in every unit's execution with the
	// unit's ID, before the unit takes the execution lock: the point where
	// tests inject delay or a failed execution (a non-nil error) and where
	// the in-flight test counts.
	execHook func(id int) error
}

// Worker executes timing-sweep work units for any coordinator. It is an
// http.Handler exposing /work, /healthz and /metrics; the cmd/adsala-worker
// daemon mounts it behind an http.Server.
//
// Protocol: the coordinator POSTs a WorkRequest — the sweep spec, one unit's
// ID and the unit's shapes — to /work, which checks the request, builds
// the timing backend from the spec's wire Spec and times the shapes inside
// the request, one unit at a time, answering with its UnitResult. The
// worker samples nothing and keeps no session between requests, so
// coordinators running different sweeps can share it. The daemon drains
// through http.Server.Shutdown, which waits for the executing request to
// answer.
type Worker struct {
	opts WorkerOptions
	mux  *http.ServeMux
	// execMu runs units one at a time: timing wants an otherwise idle
	// machine, and two units executing together would perturb both.
	execMu sync.Mutex

	running atomic.Int64

	// reg renders the unit ledger below on /metrics as views.
	reg            *obs.Registry
	unitsAccepted  atomic.Int64
	unitsCompleted atomic.Int64
	unitsFailed    atomic.Int64
	unitSeconds    *obs.Histogram
}

// NewWorker returns a Worker with the given options.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "adsala-worker"
	}
	if opts.DebugLogf == nil {
		opts.DebugLogf = func(string, ...any) {}
	}
	w := &Worker{
		opts:        opts,
		mux:         http.NewServeMux(),
		reg:         obs.NewRegistry(),
		unitSeconds: obs.NewHistogram(1e-9),
	}
	w.reg.CounterFunc("adsala_worker_units_accepted_total",
		"Work units accepted for execution.",
		func() float64 { return float64(w.unitsAccepted.Load()) })
	w.reg.CounterFunc("adsala_worker_units_completed_total",
		"Work units executed to a successful result.",
		func() float64 { return float64(w.unitsCompleted.Load()) })
	w.reg.CounterFunc("adsala_worker_units_failed_total",
		"Work unit executions that ended in an error.",
		func() float64 { return float64(w.unitsFailed.Load()) })
	w.reg.RegisterHistogram("adsala_worker_unit_seconds",
		"Wall time of one unit execution.", w.unitSeconds)
	w.reg.GaugeFunc("adsala_worker_inflight_units",
		"Units currently executing.",
		func() float64 { return float64(w.running.Load()) })
	w.mux.HandleFunc("/work", w.handleWork)
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	w.mux.Handle("/metrics", w.reg.Handler())
	obs.RegisterProcessMetrics(w.reg)
	return w
}

// Registry returns the worker's metrics registry (served at /metrics), so
// the daemon can attach process-level instruments alongside the worker's.
func (w *Worker) Registry() *obs.Registry { return w.reg }

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the worker's mux
// — the same guarded wiring adsala-serve uses. Off by default; a timing
// worker's whole job is to keep the machine quiet, so profiling is strictly
// opt-in (-pprof).
func (w *Worker) EnablePprof() { obs.MountPprof(w.mux) }

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(rw http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(rw, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// The bounds on what one /work may ask of a worker. Each is far above what
// an install sends (units of 4 shapes, 10 repetitions, a few dozen
// candidates) and low enough that no request can exhaust the worker's memory
// or hold its execution lock for ever.
const (
	maxUnitShapes = 1024 // shapes one unit times
	maxIters      = 1000 // repetitions per configuration
	maxCandidates = 64   // thread counts per shape
	maxThreads    = 4096 // one candidate thread count
)

// maxBodyBytes bounds the body of /work: 16 KiB for the sweep spec and the
// unit (a few hundred bytes; the candidate list is one small integer per
// thread count), then 64 bytes per shape of the largest unit. With in-bound
// dimensions of at most 5 digits, a shape with its keys, braces and comma
// encodes in at most 32 bytes.
const maxBodyBytes = 16<<10 + maxUnitShapes*64

// bounded checks the request against the bounds above: a unit of 1 to
// maxUnitShapes shapes, each within checkShape for the spec's op.
func (req WorkRequest) bounded() error {
	s := req.Spec
	op, err := ops.Parse(s.Op)
	if err != nil {
		return err
	}
	if n := len(req.Shapes); n < 1 || n > maxUnitShapes {
		return fmt.Errorf("gather: unit %d carries %d shapes, want 1 to %d", req.ID, n, maxUnitShapes)
	}
	if s.Iters > maxIters {
		return fmt.Errorf("gather: sweep spec Iters %d > %d", s.Iters, maxIters)
	}
	if len(s.Candidates) > maxCandidates {
		return fmt.Errorf("gather: sweep spec has %d candidates, more than %d", len(s.Candidates), maxCandidates)
	}
	for _, c := range s.Candidates {
		if c < 1 || c > maxThreads {
			return fmt.Errorf("gather: candidate thread count %d outside [1, %d]", c, maxThreads)
		}
	}
	realTimer := s.Timer.Backend != simtime.BackendSim
	for i, sh := range req.Shapes {
		if err := checkShape(sh, op, realTimer); err != nil {
			return fmt.Errorf("gather: unit %d shape %d: %w", req.ID, i, err)
		}
	}
	return nil
}

// checkShape bounds one shape a worker is asked to time for op: each
// dimension in [1, sampling.DefaultDomain().MaxDim], the paper's domain, the
// op's canonical triple (the coordinator samples nothing else), and on the
// real backend float32 operands of at most sampling.DefaultDomain().MaxBytes
// (500 MB). Only for a canonical triple is Bytes(4) what ops.Spec.NewBench
// allocates: SYRK and SYR2K size C from M alone, so {M: 74000, K: 1, N: 1}
// would pass the cap and allocate 22 GB. The simulator allocates nothing,
// and simulated SYRK sweeps over the default domain legitimately go past the
// cap, so the byte cap does not apply to it.
func checkShape(sh sampling.Shape, op ops.Op, realTimer bool) error {
	dom := sampling.DefaultDomain()
	if min(sh.M, sh.K, sh.N) < 1 || max(sh.M, sh.K, sh.N) > dom.MaxDim {
		return fmt.Errorf("shape %v has a dimension outside [1, %d]", sh, dom.MaxDim)
	}
	if canon := op.Spec().Canon(sh); canon != sh {
		return fmt.Errorf("shape %v is not canonical for %v, want %v", sh, op, canon)
	}
	if realTimer && sh.Bytes(4) > dom.MaxBytes {
		return fmt.Errorf("shape %v needs %d bytes of float32 operands, more than %d", sh, sh.Bytes(4), dom.MaxBytes)
	}
	return nil
}

// work is one accepted /work request with the op and timer that execute it.
type work struct {
	spec   SweepSpec
	id     int
	shapes []sampling.Shape
	op     ops.Op
	timer  simtime.Timer
}

// decodeWork reads one /work body whole and checks it: within maxBodyBytes
// (the caller's reader enforces it), one JSON value, a unit, spec and shapes
// within the bounds, a Session that is the spec's fingerprint, the simulator
// backend on a requireSim worker, and an executable spec. A refusal comes
// with its status: 413 when the body ran past the bound, 409 for the real
// backend on a requireSim worker, 400 for anything else.
func decodeWork(body io.Reader, requireSim bool) (work, int, error) {
	blob, err := io.ReadAll(body)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		return work{}, status, fmt.Errorf("read work request: %w", err)
	}
	var req WorkRequest
	if err := json.Unmarshal(blob, &req); err != nil {
		return work{}, http.StatusBadRequest, fmt.Errorf("decode work request: %w", err)
	}
	spec := req.Spec
	if err := req.bounded(); err != nil {
		return work{}, http.StatusBadRequest, err
	}
	if got := spec.Fingerprint(); spec.Session != got {
		return work{}, http.StatusBadRequest,
			fmt.Errorf("gather: session %q does not match the spec fingerprint %q", spec.Session, got)
	}
	if requireSim && spec.Timer.Backend != simtime.BackendSim {
		return work{}, http.StatusConflict,
			fmt.Errorf("gather: worker runs with -sim and only accepts the %q backend, not %q",
				simtime.BackendSim, spec.Timer.Backend)
	}
	op, timer, err := spec.validate()
	if err != nil {
		return work{}, http.StatusBadRequest, err
	}
	return work{spec: spec, id: req.ID, shapes: req.Shapes, op: op, timer: timer}, http.StatusOK, nil
}

func (w *Worker) handleWork(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	wk, status, err := decodeWork(http.MaxBytesReader(rw, r.Body, maxBodyBytes), w.opts.RequireSim)
	if err != nil {
		writeError(rw, status, "%v", err)
		return
	}
	res, err := w.exec(wk)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "unit %d failed: %v", wk.id, err)
		return
	}
	writeJSON(rw, http.StatusOK, res)
}

// exec runs one unit to completion under the execution lock. Units execute
// through exactly the single-node sweep's timing loop (core.MeasureSweep),
// which is what makes the distributed merge reproduce the local gather.
func (w *Worker) exec(wk work) (*UnitResult, error) {
	w.unitsAccepted.Add(1)
	var hookErr error
	if w.opts.execHook != nil {
		hookErr = w.opts.execHook(wk.id)
	}
	w.execMu.Lock()
	defer w.execMu.Unlock()
	w.running.Add(1)
	defer w.running.Add(-1)

	start := time.Now()
	res, err := runUnit(wk, w.opts.Name)
	if hookErr != nil { // an injected failure replaces the result
		res, err = nil, hookErr
	}
	w.unitSeconds.ObserveSince(start)
	if err != nil {
		w.unitsFailed.Add(1)
		w.opts.DebugLogf("unit %d failed: %v", wk.id, err)
		return nil, err
	}
	w.unitsCompleted.Add(1)
	w.opts.DebugLogf("unit %d done: %d shapes", wk.id, len(wk.shapes))
	return res, nil
}

// runUnit executes one unit and returns its result.
func runUnit(wk work, worker string) (*UnitResult, error) {
	timings, err := core.MeasureSweep(wk.timer, wk.op, wk.shapes, wk.spec.Candidates, wk.spec.Iters)
	if err != nil {
		return nil, err
	}
	return &UnitResult{
		Session: wk.spec.Session,
		UnitID:  wk.id,
		Worker:  worker,
		Timings: timings,
	}, nil
}

// handleHealthz is the one probe: 200 whenever the process answers, with
// the units completed so far and whether one is executing.
func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, StatusResponse{
		Status:    "ok",
		Completed: int(w.unitsCompleted.Load()),
		Inflight:  int(w.running.Load()),
	})
}
