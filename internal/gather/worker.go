package gather

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/simtime"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Name is reported in results and /register answers (diagnostics).
	Name string
	// RequireSim rejects registrations asking for the real-timing backend —
	// the cmd/adsala-worker -sim guard, so a CI or test worker can never be
	// talked into wall-clock timing.
	RequireSim bool
	// Logf receives lifecycle progress lines (sweep registration); nil
	// discards them.
	Logf func(format string, args ...any)
	// DebugLogf receives per-unit progress lines — one per executed unit,
	// noisy on big sweeps. Nil falls back to Logf, so embedders that wire
	// only one sink keep today's behaviour.
	DebugLogf func(format string, args ...any)
	// execHook, when non-nil, runs first in every unit's execution, before
	// the unit takes the execution lock: the point where tests inject delay
	// or a failed execution (a non-nil error) and where the in-flight test
	// counts.
	execHook func(Unit) error
}

// Worker executes timing-sweep work units for a coordinator. It is an
// http.Handler exposing /register, /work, /healthz, /livez, /metrics and
// /drain; the cmd/adsala-worker daemon mounts it behind an http.Server.
//
// Protocol: the coordinator POSTs the SweepSpec to /register (building the
// timing backend from the wire Spec), then POSTs units to /work, which
// executes the unit inside the request, one at a time, and answers with its
// UnitResult. /drain stops the worker accepting new units while the
// executing one finishes; the daemon's graceful shutdown
// (http.Server.Shutdown) waits for that request in the same way.
type Worker struct {
	opts WorkerOptions
	mux  *http.ServeMux
	// execMu runs units one at a time: timing wants an otherwise idle
	// machine, and two units executing together would perturb both.
	execMu sync.Mutex

	draining atomic.Bool
	running  atomic.Int64

	// reg renders the unit ledger below on /metrics as views.
	reg            *obs.Registry
	unitsAccepted  atomic.Int64
	unitsCompleted atomic.Int64
	unitsFailed    atomic.Int64
	unitSeconds    *obs.Histogram

	mu      sync.Mutex
	session string
	spec    SweepSpec
	op      ops.Op
	timer   simtime.Timer
}

// NewWorker returns a Worker with the given options.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "adsala-worker"
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.DebugLogf == nil {
		opts.DebugLogf = opts.Logf
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
	w.reg.GaugeFunc("adsala_worker_draining",
		"1 once drain has begun, else 0.",
		func() float64 {
			if w.draining.Load() {
				return 1
			}
			return 0
		})
	w.reg.GaugeFunc("adsala_worker_registered",
		"1 once a sweep session is registered, else 0.",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.session != "" {
				return 1
			}
			return 0
		})
	w.mux.HandleFunc("/register", w.handleRegister)
	w.mux.HandleFunc("/work", w.handleWork)
	w.mux.HandleFunc("/healthz", w.handleHealthz)
	w.mux.HandleFunc("/livez", w.handleLivez)
	w.mux.HandleFunc("/drain", w.handleDrain)
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

// maxBodyBytes bounds the body of /register and /work, and the answer the
// coordinator reads back from either: a sweep spec, a work unit or a
// registration answer is a few hundred bytes (a spec's candidate list is one
// small integer per thread count), so 16 KiB refuses nothing legitimate.
const maxBodyBytes = 16 << 10

// decodeBody decodes the JSON request body, of at most maxBodyBytes, into v.
// A failure comes with its status: 413 when the body ran past the bound, 400
// for anything else.
func decodeBody(rw http.ResponseWriter, r *http.Request, v any) (status int, err error) {
	if err = json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxBodyBytes)).Decode(v); err == nil {
		return http.StatusOK, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

func (w *Worker) handleRegister(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var spec SweepSpec
	if status, err := decodeBody(rw, r, &spec); err != nil {
		writeError(rw, status, "decode spec: %v", err)
		return
	}
	if err := spec.validate(); err != nil {
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	if got := spec.Fingerprint(); spec.Session != got {
		writeError(rw, http.StatusBadRequest,
			"session %q does not match the spec fingerprint %q", spec.Session, got)
		return
	}
	if w.opts.RequireSim && spec.Timer.Backend != simtime.BackendSim {
		writeError(rw, http.StatusConflict,
			"worker runs with -sim and only accepts the %q backend, not %q",
			simtime.BackendSim, spec.Timer.Backend)
		return
	}
	op, err := spec.parseOp()
	if err != nil {
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}
	timer, err := spec.Timer.Build()
	if err != nil {
		writeError(rw, http.StatusBadRequest, "%v", err)
		return
	}

	w.mu.Lock()
	if w.session != spec.Session {
		// A new sweep supersedes the previous one; a unit of the old sweep
		// still executing finishes against the spec it started with.
		w.session = spec.Session
		w.spec = spec
		w.op = op
		w.timer = timer
	}
	w.mu.Unlock()
	w.opts.Logf("registered sweep %s: op=%s backend=%s candidates=%d iters=%d",
		spec.Session, spec.Op, spec.Timer.Backend, len(spec.Candidates), spec.Iters)
	writeJSON(rw, http.StatusOK, RegisterResponse{Worker: w.opts.Name, Backend: spec.Timer.Backend})
}

func (w *Worker) handleWork(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if w.draining.Load() {
		writeError(rw, http.StatusServiceUnavailable, "worker is draining")
		return
	}
	var req WorkRequest
	if status, err := decodeBody(rw, r, &req); err != nil {
		writeError(rw, status, "decode work request: %v", err)
		return
	}
	if req.Unit.Start < 0 || req.Unit.Count < 1 {
		writeError(rw, http.StatusBadRequest, "unit %d has invalid range [%d, %d)",
			req.Unit.ID, req.Unit.Start, req.Unit.Start+req.Unit.Count)
		return
	}

	w.mu.Lock()
	if w.session == "" || req.Session != w.session {
		w.mu.Unlock()
		writeError(rw, http.StatusConflict, "session %q is not registered", req.Session)
		return
	}
	spec, op, timer := w.spec, w.op, w.timer
	w.mu.Unlock()

	res, err := w.exec(spec, op, timer, req.Unit)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, "unit %d failed: %v", req.Unit.ID, err)
		return
	}
	writeJSON(rw, http.StatusOK, res)
}

// exec runs one unit to completion under the execution lock. Units execute
// through exactly the single-node sweep code path (core.SampleOpShapes +
// core.MeasureSweep), which is what makes the distributed merge reproduce
// the local gather.
func (w *Worker) exec(spec SweepSpec, op ops.Op, timer simtime.Timer, u Unit) (*UnitResult, error) {
	w.unitsAccepted.Add(1)
	var hookErr error
	if w.opts.execHook != nil {
		hookErr = w.opts.execHook(u)
	}
	w.execMu.Lock()
	defer w.execMu.Unlock()
	w.running.Add(1)
	defer w.running.Add(-1)

	start := time.Now()
	res, err := runUnit(spec, op, timer, u, w.opts.Name)
	if hookErr != nil { // an injected failure replaces the result
		res, err = nil, hookErr
	}
	w.unitSeconds.ObserveSince(start)
	if err != nil {
		w.unitsFailed.Add(1)
		w.opts.DebugLogf("unit %d failed: %v", u.ID, err)
		return nil, err
	}
	w.unitsCompleted.Add(1)
	w.opts.DebugLogf("unit %d done: shapes [%d, %d)", u.ID, u.Start, u.Start+u.Count)
	return res, nil
}

// runUnit executes one unit against the spec and returns its result.
func runUnit(spec SweepSpec, op ops.Op, timer simtime.Timer, u Unit, worker string) (*UnitResult, error) {
	shapes, err := core.SampleOpShapes(spec.Domain, spec.Seed, op, u.Start, u.Count)
	if err != nil {
		return nil, err
	}
	timings, err := core.MeasureSweep(timer, op, shapes, spec.Candidates, spec.Iters)
	if err != nil {
		return nil, err
	}
	return &UnitResult{
		Session: spec.Session,
		UnitID:  u.ID,
		Start:   u.Start,
		Count:   u.Count,
		Worker:  worker,
		Timings: timings,
	}, nil
}

// statusBody assembles the shared health payload and whether the worker is
// ready for coordinator traffic: registered and not draining.
func (w *Worker) statusBody() (StatusResponse, bool) {
	w.mu.Lock()
	session := w.session
	w.mu.Unlock()
	draining := w.draining.Load()
	status := "ok"
	switch {
	case draining:
		status = "draining"
	case session == "":
		status = "starting"
	}
	return StatusResponse{
		Status:     status,
		Session:    session,
		Registered: session != "",
		Completed:  int(w.unitsCompleted.Load()),
		Inflight:   int(w.running.Load()),
		Draining:   draining,
	}, status == "ok"
}

// handleHealthz is the readiness probe: 200 only once a sweep session has
// been registered and drain has not begun, 503 otherwise — so a load
// balancer (or the CI wait loop) routing coordinator traffic by readiness
// skips workers that would refuse it anyway.
func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	body, ready := w.statusBody()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(rw, status, body)
}

// handleLivez is the liveness probe: 200 whenever the process answers,
// registered or not.
func (w *Worker) handleLivez(rw http.ResponseWriter, r *http.Request) {
	body, _ := w.statusBody()
	writeJSON(rw, http.StatusOK, body)
}

func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	w.draining.Store(true)
	writeJSON(rw, http.StatusOK, StatusResponse{Status: "draining", Draining: true})
}
