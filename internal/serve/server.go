package serve

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sampling"
)

// PredictRequest is the JSON body of POST /predict (GET uses ?m=&k=&n=&op=).
// Op selects the operation kind by registry wire name ("gemm", "syrk",
// "syr2k"); empty means GEMM, so pre-op clients keep working. Symmetric
// updates pass the (n, k, n) triple of the output shape.
type PredictRequest struct {
	M  int    `json:"m"`
	K  int    `json:"k"`
	N  int    `json:"n"`
	Op string `json:"op,omitempty"`
}

// parse is the one validation every wire shape passes — /predict, each
// /batch slot, each /measured record: positive dimensions that fit an
// int32, as the flight recorder stores them, on every platform, and a
// registered operation name.
func (r PredictRequest) parse() (Op, error) {
	if r.M < 1 || r.K < 1 || r.N < 1 {
		return 0, fmt.Errorf("dimensions must be positive, got %dx%dx%d", r.M, r.K, r.N)
	}
	if r.M > math.MaxInt32 || r.K > math.MaxInt32 || r.N > math.MaxInt32 {
		return 0, fmt.Errorf("dimensions must be at most %d, got %dx%dx%d", math.MaxInt32, r.M, r.K, r.N)
	}
	return ParseOp(r.Op)
}

// PredictResponse is the JSON answer of /predict.
type PredictResponse struct {
	M       int    `json:"m"`
	K       int    `json:"k"`
	N       int    `json:"n"`
	Op      string `json:"op"`
	Threads int    `json:"threads"`
	// Fallback is true when the decision came from the deterministic
	// heuristic instead of a model — the degraded-mode tag of the
	// resilience contract (artefact holds no model for the op, or the
	// request deadline expired before ranking).
	Fallback bool `json:"fallback,omitempty"`
	// Candidates and PredictedMicros are present only when detail was
	// requested: the ranked thread counts and their predicted runtimes.
	Candidates      []int     `json:"candidates,omitempty"`
	PredictedMicros []float64 `json:"predicted_micros,omitempty"`
}

// BatchRequest is the JSON body of POST /batch.
type BatchRequest struct {
	Shapes []PredictRequest `json:"shapes"`
}

// BatchResponse is the JSON answer of /batch.
type BatchResponse struct {
	Threads []int `json:"threads"`
	// Fallback, when present, aligns with Threads and marks the decisions
	// answered by the deterministic heuristic instead of a model. Omitted
	// when every decision came from the cache or a model.
	Fallback []bool `json:"fallback,omitempty"`
}

// HealthResponse is the JSON answer of /healthz: 200 with Status "ok"
// whenever the process answers. There is no draining state, since
// http.Server.Shutdown closes the listener before anything else.
type HealthResponse struct {
	Status   string `json:"status"`
	Platform string `json:"platform"`
	Model    string `json:"model"`
	// FormatVersion is the on-disk format version of the loaded artefact
	// and Ops the operations it holds trained models for — enough for an
	// operator to tell a legacy v1 single-model artefact from a v2 bundle
	// without opening the file.
	FormatVersion int      `json:"format_version"`
	Ops           []string `json:"ops"`
	// Generation counts hot artefact reloads since boot (0 = still on the
	// boot artefact), so an operator can confirm a reload took effect even
	// when old and new artefacts share a format version.
	Generation int64 `json:"artefact_generation"`
	// Degraded is true when the drift monitor reports the model's windowed
	// prediction residuals past the configured threshold for at least one
	// op; DriftingOps lists the offenders. Degraded is not down: /healthz
	// stays 200 (the daemon still serves; the model is stale, and /drift
	// has the details). Absent when drift monitoring is off.
	Degraded    bool     `json:"degraded,omitempty"`
	DriftingOps []string `json:"drifting_ops,omitempty"`
}

// endpointMetrics tracks request count and latency for one endpoint: the
// latency histogram carries the request count and total time, errors the
// failed share. /metrics is their only rendering.
type endpointMetrics struct {
	errors  atomic.Int64
	latency *obs.Histogram
}

func (m *endpointMetrics) observe(d time.Duration, failed bool) {
	m.latency.Observe(d.Nanoseconds()) // the request count: before errors, see register
	if failed {
		m.errors.Add(1)
	}
}

// register exposes the endpoint's counters and latency histogram under the
// given route label.
func (m *endpointMetrics) register(r *obs.Registry, route string) {
	lbl := obs.L("route", route)
	r.CounterFunc("adsala_http_requests_total",
		"HTTP requests handled, by route and result.",
		func() float64 {
			// Errors loaded first so ok = count - errors never dips negative
			// under concurrent traffic.
			e := m.errors.Load()
			return float64(m.latency.Count() - e)
		}, lbl, obs.L("result", "ok"))
	r.CounterFunc("adsala_http_requests_total",
		"HTTP requests handled, by route and result.",
		func() float64 { return float64(m.errors.Load()) },
		lbl, obs.L("result", "error"))
	r.RegisterHistogram("adsala_http_request_seconds",
		"HTTP request latency, by route.", m.latency, lbl)
}

// StatsResponse is the JSON answer of /stats: the artefact being served
// and the engine's decision ledger. Everything else the daemon counts —
// per-op decisions, ranking latency, cache occupancy, HTTP requests — is on
// /metrics.
type StatsResponse struct {
	Platform string `json:"platform"`
	Model    string `json:"model"`
	// Models lists the per-op model bundle: wire name → selected model
	// family, for every op with a trained model of its own.
	Models map[string]string `json:"models,omitempty"`
	Engine Stats             `json:"engine"`
}

// MaxBatchShapes bounds one /batch request, which holds its admission slot
// for as long as deciding that many shapes one by one takes.
const MaxBatchShapes = 16384

// Request-body bounds, applied while the body is read — MaxBatchShapes is
// otherwise first checked on a slice the whole body has already become — and
// sized from each route's own limit, so that every request the validation
// accepts still fits: a wire shape with three 19-digit dimensions and the
// longest op name is 86 bytes, a measured record 64 more, and the
// per-element figures round those up to leave room for indentation.
const (
	maxPredictBody  = 4 << 10
	maxBatchBody    = MaxBatchShapes*128 + 1<<10
	maxMeasuredBody = MaxMeasuredRecords*256 + 1<<10
)

// Limits is the overload-protection configuration of a Server: bounded
// in-flight admission with a short wait queue on the prediction endpoints,
// plus a per-request deadline threaded into the engine. Probes, /stats and
// /metrics are never limited — an overloaded daemon must stay observable.
// The queue is as deep as MaxInFlight, and a queued request waits at most
// 50 ms.
type Limits struct {
	// MaxInFlight bounds concurrently admitted /predict, /batch and
	// /measured requests. 0 selects the default (8×GOMAXPROCS); negative
	// disables admission control entirely.
	MaxInFlight int
	// RequestTimeout is the per-request deadline threaded into the engine
	// (default 2s; negative disables). A request that exhausts it mid-rank
	// degrades to the heuristic answer instead of erroring.
	RequestTimeout time.Duration
}

// queueWait is how long a queued request waits for a slot before it sheds
// with 429 — short on purpose: a deep slow queue is worse than a fast no.
const queueWait = 50 * time.Millisecond

// withDefaults resolves the zero values.
func (l Limits) withDefaults() Limits {
	if l.MaxInFlight == 0 {
		l.MaxInFlight = 8 * runtime.GOMAXPROCS(0)
	}
	if l.RequestTimeout == 0 {
		l.RequestTimeout = 2 * time.Second
	}
	return l
}

// limiter is the admission gate: a semaphore of in-flight slots plus a
// counted short wait queue. newLimiter sets the queue to the server's
// constants; in-package tests change it.
type limiter struct {
	sem      chan struct{}
	queued   atomic.Int64
	maxQueue int64
	wait     time.Duration
}

func newLimiter(l Limits) *limiter {
	if l.MaxInFlight < 0 {
		return nil
	}
	return &limiter{
		sem:      make(chan struct{}, l.MaxInFlight),
		maxQueue: int64(l.MaxInFlight),
		wait:     queueWait,
	}
}

// acquire admits the request or reports shed. The wait queue is bounded by
// count and by time, so admission never queues unboundedly: beyond
// maxQueue waiters, or after wait, the caller sheds.
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.sem <- struct{}{}:
		return true
	default:
	}
	if l.queued.Add(1) > l.maxQueue {
		l.queued.Add(-1)
		return false
	}
	defer l.queued.Add(-1)
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

func (l *limiter) release() { <-l.sem }

// ReloadConfig wires hot artefact reload into a Server.
type ReloadConfig struct {
	// Load produces the replacement library (typically re-reading the
	// artefact path the daemon booted from). Required.
	Load func() (*core.Library, error)
	// Token authenticates POST /admin/reload (Authorization: Bearer <token>
	// or X-Adsala-Admin-Token). Empty leaves the endpoint unmounted —
	// reloads then happen only through Server.Reload (the SIGHUP path).
	Token string
	// Logf receives reload progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// ServerOption customises a Server at construction.
type ServerOption func(*Server)

// WithLimits sets the overload-protection limits (see Limits; the zero
// value selects the defaults, which are also applied when the option is
// omitted).
func WithLimits(l Limits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// WithReload enables hot artefact reload (Server.Reload and, when a token
// is set, POST /admin/reload).
func WithReload(rc ReloadConfig) ServerOption {
	return func(s *Server) { s.reload = &rc }
}

// Server is the HTTP front end of the serving subsystem. It satisfies
// http.Handler; mount it directly or via an http.Server.
type Server struct {
	engine   *Engine
	mux      *http.ServeMux
	reg      *obs.Registry
	predict  endpointMetrics
	batch    endpointMetrics
	measured endpointMetrics
	// batchSizes is the shapes-per-/batch-request distribution: one
	// observation per request, however many ops it mixes.
	batchSizes *obs.Histogram

	// Overload protection: limits is resolved at construction; limit is
	// nil when admission control is disabled.
	limits Limits
	limit  *limiter
	shed   atomic.Int64 // requests answered 429
	panics atomic.Int64 // handler panics recovered to 500

	// Hot reload: nil when not configured. reloadMu serialises swaps so
	// two concurrent reloads cannot interleave their load/swap pairs.
	reload   *ReloadConfig
	reloadMu sync.Mutex
}

// NewServer returns an HTTP handler exposing the engine at /predict,
// /batch, /measured, /stats, /drift, /healthz and /metrics. Overload
// protection is on by default (see Limits); options adjust it, enable hot
// reload, and so on.
func NewServer(engine *Engine, opts ...ServerOption) *Server {
	s := &Server{engine: engine, mux: http.NewServeMux(), reg: obs.NewRegistry()}
	for _, opt := range opts {
		opt(s)
	}
	s.limits = s.limits.withDefaults()
	s.limit = newLimiter(s.limits)
	s.predict.latency = obs.NewHistogram(1e-9)
	s.batch.latency = obs.NewHistogram(1e-9)
	s.measured.latency = obs.NewHistogram(1e-9)
	s.batchSizes = obs.NewHistogram(1)
	s.mux.HandleFunc("/predict", s.handlePredict)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/measured", s.handleMeasured)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/drift", s.handleDrift)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", s.reg.Handler())
	if s.reload != nil && s.reload.Token != "" {
		s.mux.HandleFunc("/admin/reload", s.handleAdminReload)
	}

	engine.RegisterMetrics(s.reg)
	obs.RegisterProcessMetrics(s.reg)
	s.predict.register(s.reg, "predict")
	s.batch.register(s.reg, "batch")
	s.measured.register(s.reg, "measured")
	s.reg.RegisterHistogram("adsala_serve_batch_size",
		"Shapes per /batch request.", s.batchSizes)
	s.reg.GaugeFunc("adsala_serve_artefact_format_version",
		"On-disk format version of the loaded artefact.",
		func() float64 { return float64(engine.Library().Format()) })
	s.reg.CounterFunc("adsala_serve_shed_total",
		"Requests shed with 429 by overload protection.",
		func() float64 { return float64(s.shed.Load()) })
	s.reg.CounterFunc("adsala_serve_panics_total",
		"Handler panics recovered to a 500 answer.",
		func() float64 { return float64(s.panics.Load()) })
	if s.limit != nil {
		s.reg.GaugeFunc("adsala_serve_inflight_requests",
			"Prediction requests currently admitted.",
			func() float64 { return float64(len(s.limit.sem)) })
		s.reg.GaugeFunc("adsala_serve_queued_requests",
			"Prediction requests waiting for an in-flight slot.",
			func() float64 { return float64(s.limit.queued.Load()) })
	}
	return s
}

// Engine returns the prediction engine behind the server.
func (s *Server) Engine() *Engine { return s.engine }

// Registry returns the server's metrics registry (served at /metrics), so
// daemons can attach process-level instruments alongside the engine's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// EnablePprof mounts net/http/pprof under /debug/pprof/ (the shared
// obs.MountPprof wiring). Off by default: profiling endpoints expose
// internals and cost CPU, so daemons gate this behind a flag.
func (s *Server) EnablePprof() {
	obs.MountPprof(s.mux)
}

// ServeHTTP implements http.Handler. Every route runs under the
// panic-recovery middleware: a handler panic answers 500 JSON and advances
// the panics counter instead of killing the daemon's connection goroutine
// silently mid-response (net/http would otherwise log and drop it, and a
// panic in shared state could cascade). http.ErrAbortHandler is re-raised —
// it is net/http's sanctioned way to sever a connection.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panics.Add(1)
		// Best effort: if the handler already wrote headers this is a
		// no-op on the status and appends to the body of a torn response
		// the client will fail to decode — still strictly better than a
		// silent hang-up.
		writeError(w, http.StatusInternalServerError, "internal error: %v", rec)
	}()
	s.mux.ServeHTTP(w, r)
}

// admit runs the overload gate for one prediction request: true means
// proceed (the caller must defer s.release()). On shed it writes the 429
// answer — JSON body plus a Retry-After header — and counts it. The limited
// routes call it right after their method check, before the bounded read,
// decode and validation, so a shed request has not read its body and the
// in-flight limit bounds decode CPU and memory as well as decisions.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.limit == nil {
		return true
	}
	if s.limit.acquire(r.Context()) {
		return true
	}
	s.shed.Add(1)
	// Retry-After is whole seconds; round the queue wait up to 1s so a
	// compliant client backs off for at least the shed horizon.
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, shedResponse{
		Error:        "overloaded: in-flight limit reached",
		RetryAfterMS: 1000,
	})
	return false
}

func (s *Server) release() {
	if s.limit != nil {
		s.limit.release()
	}
}

// shedResponse is the 429 JSON body of a shed request.
type shedResponse struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// requestCtx derives the per-request deadline context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.limits.RequestTimeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.limits.RequestTimeout)
}

// writeJSON writes v through encoding/json: errors, /stats, the probes,
// /drift and ?detail=1. The plain /predict, /batch and /measured answers are
// appended by the codec instead (reply), byte for byte the same.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// parsePredict extracts a shape and operation kind from either query
// parameters (GET) or the JSON body (POST), read and decoded by c; a failure
// comes with its status.
func (c *codec) parsePredict(w http.ResponseWriter, r *http.Request, query url.Values) (req PredictRequest, op Op, status int, err error) {
	if r.Method == http.MethodGet {
		var dims [3]int
		for i, name := range [...]string{"m", "k", "n"} {
			if dims[i], err = strconv.Atoi(query.Get(name)); err != nil {
				return req, 0, http.StatusBadRequest, fmt.Errorf("query parameter %q: want a positive integer", name)
			}
		}
		req = PredictRequest{M: dims[0], K: dims[1], N: dims[2], Op: query.Get("op")}
	} else {
		if status, err := decode(c, w, r, maxPredictBody, &c.predict, (*scanner).predict); err != nil {
			return req, 0, status, fmt.Errorf("decode body: %v", err)
		}
		req = c.predict
	}
	op, err = req.parse()
	return req, op, http.StatusBadRequest, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.predict.observe(time.Since(start), failed) }()

	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	c := newCodec()
	defer c.free()
	// Parsed once: every Query call re-parses the raw query into a new map.
	query := r.URL.Query()
	req, op, status, err := c.parsePredict(w, r, query)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	resp := PredictResponse{M: req.M, K: req.K, N: req.N, Op: op.String()}
	if query.Get("detail") == "1" {
		var scores []float64
		scores, resp.Threads, resp.Fallback = s.engine.RankOpCtx(ctx, op, req.M, req.K, req.N)
		resp.Candidates = s.engine.Candidates()
		resp.PredictedMicros = make([]float64, len(scores))
		for i, sec := range scores {
			resp.PredictedMicros[i] = sec * 1e6
		}
		failed = false
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Threads, resp.Fallback = s.engine.PredictOpCtx(ctx, op, req.M, req.K, req.N)
	failed = false
	c.buf = appendPredict(c.buf[:0], &resp)
	reply(w, c.buf)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.batch.observe(time.Since(start), failed) }()

	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	c := newCodec()
	defer c.free()
	req := &c.batch
	if status, err := decode(c, w, r, maxBatchBody, req, (*scanner).batch); err != nil {
		writeError(w, status, "decode body: %v", err)
		return
	}
	if len(req.Shapes) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Shapes) > MaxBatchShapes {
		writeError(w, http.StatusBadRequest, "batch of %d shapes exceeds limit %d", len(req.Shapes), MaxBatchShapes)
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	// Validate the whole request, in request order, before deciding any of it.
	shapes := make([]sampling.Shape, len(req.Shapes))
	opOf := make([]Op, len(req.Shapes))
	for i, sh := range req.Shapes {
		op, err := sh.parse()
		if err != nil {
			writeError(w, http.StatusBadRequest, "shape %d: %v", i, err)
			return
		}
		shapes[i], opOf[i] = sampling.Shape{M: sh.M, K: sh.K, N: sh.N}, op
	}
	s.batchSizes.Observe(int64(len(shapes)))
	// The engine decides one operation per call, so a mixed-op batch goes to
	// it as its runs of consecutive same-op shapes, each answered in place:
	// the response is in request order by construction.
	threads := make([]int, len(shapes))
	var fallback []bool
	for i := 0; i < len(shapes); {
		j := i + 1
		for j < len(shapes) && opOf[j] == opOf[i] {
			j++
		}
		_, fbs := s.engine.PredictBatchOpCtx(ctx, opOf[i], shapes[i:j], threads[i:j])
		if fbs != nil {
			if fallback == nil {
				fallback = make([]bool, len(shapes))
			}
			copy(fallback[i:j], fbs)
		}
		i = j
	}
	failed = false
	c.buf = appendBatch(c.buf[:0], &BatchResponse{Threads: threads, Fallback: fallback})
	reply(w, c.buf)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	lib := s.engine.Library()
	models := make(map[string]string)
	for _, op := range lib.TrainedOps() {
		models[op.String()] = lib.ModelFor(op).Kind
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Platform: lib.Platform,
		Model:    lib.ModelKind(),
		Models:   models,
		Engine:   s.engine.Stats(),
	})
}

// healthBody assembles the health payload of /healthz and /admin/reload.
func (s *Server) healthBody() HealthResponse {
	lib := s.engine.Library()
	trained := lib.TrainedOps()
	names := make([]string, len(trained))
	for i, op := range trained {
		names[i] = op.String()
	}
	body := HealthResponse{
		Status:        "ok",
		Platform:      lib.Platform,
		Model:         lib.ModelKind(),
		FormatVersion: lib.Format(),
		Ops:           names,
		Generation:    s.engine.Generation(),
	}
	if mon := s.engine.DriftMonitor(); mon != nil {
		body.DriftingOps = mon.DriftingOps()
		body.Degraded = len(body.DriftingOps) > 0
	}
	return body
}

// Reload swaps the served artefact through the configured ReloadConfig:
// load the replacement library and swap it into the engine atomically (the
// new generation starts with an empty decision cache). Serving never
// pauses — requests keep answering against the old artefact until the swap
// lands and against the new one after, each distinct shape ranked once as
// traffic refills the cache. Serialised: concurrent reloads apply one at a
// time. Returns the post-swap health body (the /admin/reload answer and
// what SIGHUP handlers log).
func (s *Server) Reload() (HealthResponse, error) {
	if s.reload == nil || s.reload.Load == nil {
		return HealthResponse{}, fmt.Errorf("serve: reload is not configured")
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	logf := s.reload.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	lib, err := s.reload.Load()
	if err != nil {
		// The old artefact keeps serving — a failed load must not degrade
		// a healthy daemon.
		logf("reload failed (still serving generation %d): %v", s.engine.Generation(), err)
		return HealthResponse{}, err
	}
	s.engine.SwapLibrary(lib)
	logf("reloaded artefact: generation %d, format v%d, platform %s",
		s.engine.Generation(), lib.Format(), lib.Platform)
	return s.healthBody(), nil
}

// authorizedReload checks the reload token (Authorization: Bearer <token>
// or X-Adsala-Admin-Token) in constant time.
func (s *Server) authorizedReload(r *http.Request) bool {
	token := s.reload.Token
	got := r.Header.Get("X-Adsala-Admin-Token")
	if got == "" {
		const prefix = "Bearer "
		if auth := r.Header.Get("Authorization"); len(auth) > len(prefix) && auth[:len(prefix)] == prefix {
			got = auth[len(prefix):]
		}
	}
	return subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// handleAdminReload is POST /admin/reload: authenticated hot artefact
// swap. Mounted only when a ReloadConfig with a token was supplied.
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	if !s.authorizedReload(r) {
		writeError(w, http.StatusUnauthorized, "missing or invalid reload token")
		return
	}
	body, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "reload: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

// handleHealthz is the one probe: 200 with the health body whenever the
// process answers.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.healthBody())
}
