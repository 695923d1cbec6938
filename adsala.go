// Package adsala is the public API of the ADSALA reproduction: an
// Architecture and Data-Structure Aware Linear Algebra library that uses a
// machine-learning model, trained at installation time, to select the
// number of threads minimising the runtime of each GEMM call.
//
// Reproduction of "A Machine Learning Approach Towards Runtime Optimisation
// of Matrix Multiplication" (Xia, De La Pierre, Barnard, Barca; 2023).
//
// Usage sketch:
//
//	lib, report, err := adsala.Train(adsala.TrainOptions{
//		Platform: "Gadi",
//		Ops:      []adsala.Op{adsala.OpSYRK}, // per-op models beyond GEMM
//	})
//	...
//	b := lib.BLAS()
//	b.SGEMM(false, false, 1, a, x, 0, c) // threads picked by the GEMM model
//	b.SSYRK(false, 1, a, 0, c2)          // threads picked by the SYRK model
//
// Train-once, use-everywhere: Library.Save writes the installation
// artefacts (per-op preprocessing configs + trained models) to one JSON
// file that adsala.Load restores at program start — including artefacts
// saved by pre-registry versions (format v1), which load as a GEMM-only
// bundle and predict identically.
package adsala

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/simtime"
)

// Matrix type re-exports so that callers of the public API do not need to
// import internal packages.
type (
	// MatrixF32 is a dense row-major single-precision matrix.
	MatrixF32 = matF32
	// MatrixF64 is a dense row-major double-precision matrix.
	MatrixF64 = matF64
)

// TrainOptions configures installation-time training.
type TrainOptions struct {
	// Platform selects the timing substrate: "Setonix" or "Gadi" train
	// against the corresponding simulated HPC node; "local" times the
	// built-in GEMM kernels on this machine.
	Platform string
	// CapMB bounds the aggregate GEMM footprint of the sampled shapes
	// (paper: 100 or 500). Default 500 for simulated platforms, 64 for
	// local.
	CapMB int
	// Shapes is the number of sampled GEMM shapes (paper: 1763).
	// Default 300 (simulated) / 40 (local).
	Shapes int
	// Iters is the number of timing repetitions per configuration
	// (paper: 10). Default 3.
	Iters int
	// Quick shrinks model grids and ensemble sizes (for demos and tests).
	Quick bool
	// NoHT disables hyper-threading on simulated platforms (hyper-threading
	// is on by default; setting NoHT caps thread counts at the physical
	// core count).
	NoHT bool
	Seed int64
	// Ops lists the operations to train per-op models for, beyond the
	// always-trained GEMM (e.g. [OpSYRK, OpSYR2K]). Each op gathers its own
	// timing sweep through its registered kernel and cost profile; ops
	// without a model fall back to the GEMM model at serving time.
	Ops []Op
}

// Report is the model-comparison outcome of installation (Tables III/IV):
// the primary GEMM comparison plus one section per additionally trained op.
type Report struct {
	// Rows is the primary (GEMM) model comparison.
	Rows []core.ModelReport
	// PerOp holds one section per trained operation, GEMM first.
	PerOp []OpReport
}

// OpReport is one operation's model comparison.
type OpReport struct {
	Op   string
	Rows []core.ModelReport
}

// String renders the report as aligned tables — one per trained op when
// models beyond GEMM were trained.
func (r *Report) String() string {
	if len(r.PerOp) <= 1 {
		return core.RenderReport(r.Rows)
	}
	var b strings.Builder
	for i, sec := range r.PerOp {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "op %s:\n%s", sec.Op, core.RenderReport(sec.Rows))
	}
	return b.String()
}

// Best returns the primary-comparison row for the given model kind.
func (r *Report) Best(kind string) (core.ModelReport, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind {
			return row, true
		}
	}
	return core.ModelReport{}, false
}

// Library is a trained ADSALA artefact: a per-operation model bundle plus
// one shared serving engine that every runtime facade created from it
// (BLAS, NewServer with default options) observes — one decision cache, one
// set of statistics.
//
// The artefact may be trained for a larger machine than this one. Every
// engine the library hands out therefore ranks its feasible view — the same
// models over the candidates this host can run (hostThreads) — so no model
// evaluation is spent on a thread count that could never execute. The
// artefact-wide accessors (Candidates, OptimalThreadsOp, PredictRuntimeOp,
// Save) keep describing the artefact as trained.
type Library struct {
	inner *core.Library
	// feasible is inner.Feasible(hostThreads()) as of construction: inner
	// itself when the host can run every candidate.
	feasible *core.Library

	engOnce sync.Once
	eng     *serve.Engine
}

func newLibrary(inner *core.Library) *Library {
	return &Library{inner: inner, feasible: inner.Feasible(hostThreads())}
}

// hostThreads is the most threads a call can run on here — the one
// definition of "feasible" that sizes the local install sweep (buildConfig),
// the ranked view (newLibrary) and the execution guard (clamp).
func hostThreads() int { return runtime.GOMAXPROCS(0) }

// Train runs the full installation workflow (Fig 2) — once per requested
// operation — and returns the deployable library plus the model-comparison
// report.
func Train(opts TrainOptions) (*Library, *Report, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Train(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Rows: res.Reports}
	for _, op := range res.Library.TrainedOps() {
		rep.PerOp = append(rep.PerOp, OpReport{Op: op.String(), Rows: res.OpReports[op]})
	}
	return newLibrary(res.Library), rep, nil
}

func buildConfig(opts TrainOptions) (core.TrainConfig, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	iters := opts.Iters
	if iters == 0 {
		iters = 3
	}

	var (
		timer      simtime.Timer
		maxThreads int
		refThreads int
		platform   string
		capMB      = opts.CapMB
		shapes     = opts.Shapes
	)
	switch strings.ToLower(opts.Platform) {
	case "", "gadi", "setonix":
		name := "Gadi"
		if strings.EqualFold(opts.Platform, "setonix") {
			name = "Setonix"
		}
		node, err := machine.ByName(name)
		if err != nil {
			return core.TrainConfig{}, err
		}
		simCfg := simtime.DefaultConfig(node)
		simCfg.HT = !opts.NoHT
		simCfg.Seed = seed
		timer = simtime.New(simCfg)
		maxThreads = node.MaxThreads(!opts.NoHT)
		refThreads = node.PhysicalCores()
		platform = name
		if capMB == 0 {
			capMB = 500
		}
		if shapes == 0 {
			shapes = 300
		}
	case "local":
		timer = simtime.NewRealTimer()
		// Nothing above hostThreads is ever executed here, so nothing
		// above it is timed.
		maxThreads = hostThreads()
		refThreads = hostThreads()
		platform = "local"
		if capMB == 0 {
			capMB = 64
		}
		if shapes == 0 {
			shapes = 40
		}
	default:
		return core.TrainConfig{}, fmt.Errorf("adsala: unknown platform %q (want Setonix, Gadi or local)", opts.Platform)
	}

	gather := core.GatherConfig{
		Timer:      timer,
		Domain:     sampling.DefaultDomain().WithCapMB(capMB),
		NumShapes:  shapes,
		Candidates: core.DefaultCandidates(maxThreads),
		Iters:      iters,
		Seed:       seed,
	}
	if platform == "local" {
		// Local timing of the built-in kernels: keep shapes small enough to
		// finish quickly.
		gather.Domain.MaxDim = 768
	}
	cfg := core.DefaultTrainConfig(gather, platform, refThreads)
	cfg.Models = core.DefaultModels(seed, opts.Quick)
	cfg.Ops = opts.Ops
	return cfg, nil
}

// ParseOps maps a comma-separated list of operation wire names (e.g.
// "gemm,syrk") to Ops — the format of adsala-train's -ops flag.
func ParseOps(s string) ([]Op, error) { return ops.ParseList(s) }

// Load restores a library saved by Save.
func Load(path string) (*Library, error) {
	inner, err := core.Load(path)
	if err != nil {
		return nil, err
	}
	return newLibrary(inner), nil
}

// Save writes the installation artefacts to one JSON file.
func (l *Library) Save(path string) error { return l.inner.Save(path) }

// Platform returns the platform name the library was trained for.
func (l *Library) Platform() string { return l.inner.Platform }

// ModelKind returns the selected model family (e.g. "xgb").
func (l *Library) ModelKind() string { return l.inner.ModelKind() }

// Candidates returns the thread counts the artefact was trained over — the
// set OptimalThreadsOp and a daemon serving the file rank. The engines this
// library hands out rank the subset this host can run; Engine.Candidates
// reports that.
func (l *Library) Candidates() []int {
	return append([]int(nil), l.inner.Candidates...)
}

// OptimalThreadsOp predicts the fastest thread count for one operation at
// its canonical (m, k, n) feature triple (symmetric updates pass (n, k, n)),
// using the op's own model when trained and the GEMM model otherwise.
func (l *Library) OptimalThreadsOp(op Op, m, k, n int) int {
	return l.inner.OptimalThreadsOp(op, m, k, n)
}

// PredictRuntimeOp returns the op model's wall-time estimate in seconds for
// one configuration.
func (l *Library) PredictRuntimeOp(op Op, m, k, n, threads int) float64 {
	return l.inner.PredictOpSeconds(op, m, k, n, threads)
}

// EvalLatency returns the measured model-evaluation latency per selection.
func (l *Library) EvalLatency() float64 { return l.inner.EvalSeconds() }

// Serving-layer re-exports so external callers can name the types without
// importing internal packages.
type (
	// ServeOptions configures the prediction-serving engine.
	ServeOptions = serve.Options
	// Engine is the concurrent prediction engine (sharded decision cache
	// plus batch ranking) returned by Library.Engine.
	Engine = serve.Engine
	// Server is the HTTP front end returned by Library.NewServer.
	Server = serve.Server
	// ServeClient is the Go client for the adsala-serve HTTP API.
	ServeClient = serve.Client
	// Op identifies the BLAS-3 operation a decision (and model) applies to;
	// it keys the serving cache and the per-op model bundle. Ops come from
	// the operation registry — see OpGEMM, OpSYRK, OpSYR2K.
	Op = serve.Op
)

// Operation kinds accepted by the op-aware engine, server and client APIs
// and by TrainOptions.Ops.
const (
	OpGEMM  = serve.OpGEMM
	OpSYRK  = serve.OpSYRK
	OpSYR2K = serve.OpSYR2K
)

// TrainedOps returns the operations this library holds a model of its own
// for (always at least OpGEMM; others fall back to the GEMM model).
func (l *Library) TrainedOps() []Op { return l.inner.TrainedOps() }

// FormatVersion reports the artefact format version (1 = single-model file,
// 2 = per-op model bundles) — the value /healthz exposes.
func (l *Library) FormatVersion() int { return l.inner.Format() }

// sharedEngine returns the library's lazily created default engine — the
// single cache every facade shares.
func (l *Library) sharedEngine() *serve.Engine {
	l.engOnce.Do(func() { l.eng = serve.NewEngine(l.feasible, serve.Options{}) })
	return l.eng
}

// Engine returns a concurrent prediction engine bound to this library: a
// sharded CLOCK decision cache plus a ranking path over reusable buffers. The
// zero Options select the library's shared engine — the same decision cache
// and statistics every BLAS facade observes; non-zero Options build a
// private engine with that configuration. Either ranks the library's
// feasible view (the candidates this host can run), so shared and private
// engines decide alike. Safe for concurrent use; see the internal/serve
// package.
func (l *Library) Engine(opts ServeOptions) *serve.Engine {
	if opts == (serve.Options{}) {
		return l.sharedEngine()
	}
	return serve.NewEngine(l.feasible, opts)
}

// NewServer returns an http.Handler serving this library's predictions at
// /predict, /batch, /stats and /healthz (the adsala-serve daemon wraps it).
// Zero Options mount the library's shared engine, so the server's /stats
// agree with the in-process facades. Like every engine of the library it
// answers for this host: a daemon that serves callers on other machines
// (adsala-serve) builds its engine on the artefact itself instead.
func (l *Library) NewServer(opts ServeOptions) *serve.Server {
	return serve.NewServer(l.Engine(opts))
}
