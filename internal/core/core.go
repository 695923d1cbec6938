// Package core implements ADSALA proper: the install-time workflow (gather
// timings → preprocess → tune → fit → evaluate → select the model with the
// best estimated speedup) and the runtime library (load model, predict the
// optimal thread count per GEMM, cache repeated shapes).
//
// The split mirrors Figs 2 and 3 of the paper: Train produces the two
// artefacts (preprocessing config + trained model) that the runtime
// Library loads and the serve engine evaluates on the hot path.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ops"
	"repro/internal/preprocess"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// CandidateTime is one measured (thread count, wall seconds) pair.
type CandidateTime struct {
	Threads int
	Seconds float64
}

// ShapeTimings holds the timing sweep of one GEMM shape across every
// candidate thread count.
type ShapeTimings struct {
	Shape sampling.Shape
	Times []CandidateTime
}

// TimeAt returns the measured seconds at the given thread count.
func (s ShapeTimings) TimeAt(threads int) (float64, bool) {
	for _, ct := range s.Times {
		if ct.Threads == threads {
			return ct.Seconds, true
		}
	}
	return 0, false
}

// BestMeasured returns the thread count with the smallest measured time.
// An empty sweep yields the zero CandidateTime rather than a panic.
func (s ShapeTimings) BestMeasured() CandidateTime {
	if len(s.Times) == 0 {
		return CandidateTime{}
	}
	best := s.Times[0]
	for _, ct := range s.Times[1:] {
		if ct.Seconds < best.Seconds {
			best = ct
		}
	}
	return best
}

// DefaultCandidates returns the thread counts evaluated at runtime for a
// platform with the given maximum: dense at low counts where the optimum
// usually falls, and aligned with topology boundaries above.
func DefaultCandidates(max int) []int {
	base := []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96,
		112, 128, 160, 192, 224, 256}
	var out []int
	for _, c := range base {
		if c < max {
			out = append(out, c)
		}
	}
	out = append(out, max)
	return out
}

// GatherConfig drives the data-gathering phase (Fig 2, left box).
type GatherConfig struct {
	Timer      simtime.Timer
	Domain     sampling.Domain
	NumShapes  int
	Candidates []int
	// Iters is the number of timing repetitions averaged per configuration
	// (the paper uses 10; §V-B.3). It must be at least 1: the one default
	// is the install recipe's (InstallOptions.Iters), nothing below it guesses.
	Iters int
	Seed  int64
	// Op selects the operation to time. The zero value is ops.GEMM (the
	// paper's sweep); other ops map each sampled shape through the
	// registry's canonical triple.
	Op ops.Op
}

// Gather runs one op's timing sweep on cfg.Timer (the paper's single-node
// install path): it draws the first NumShapes in-domain shapes of the
// deterministic (Domain, Seed) sample stream, maps each through the op's
// canonical feature triple, and times it at every candidate thread count with
// the op's kernel, averaging Iters repetitions per configuration.
func Gather(cfg GatherConfig) ([]ShapeTimings, error) {
	switch {
	case cfg.Timer == nil:
		return nil, fmt.Errorf("core: GatherConfig.Timer is nil")
	case !cfg.Op.Valid():
		return nil, fmt.Errorf("core: unknown op %v", cfg.Op)
	case cfg.NumShapes < 1:
		return nil, fmt.Errorf("core: NumShapes %d < 1", cfg.NumShapes)
	case len(cfg.Candidates) == 0:
		return nil, fmt.Errorf("core: no candidate thread counts")
	case cfg.Iters < 1:
		return nil, fmt.Errorf("core: iters %d < 1", cfg.Iters)
	}
	sampler, err := sampling.NewSampler(cfg.Domain, cfg.Seed)
	if err != nil {
		return nil, err
	}
	canon := cfg.Op.Spec().Canon
	out := make([]ShapeTimings, cfg.NumShapes)
	for i := range out {
		sh := canon(sampler.Next())
		times := make([]CandidateTime, len(cfg.Candidates))
		for j, p := range cfg.Candidates {
			times[j] = CandidateTime{Threads: p, Seconds: cfg.Timer.Measure(cfg.Op, sh.M, sh.K, sh.N, p, cfg.Iters)}
		}
		out[i] = ShapeTimings{Shape: sh, Times: times}
	}
	return out, nil
}

// Records flattens shape timings into per-(shape, threads) training records.
func Records(data []ShapeTimings) []features.Record {
	var recs []features.Record
	for _, st := range data {
		for _, ct := range st.Times {
			recs = append(recs, features.Record{Shape: st.Shape, Threads: ct.Threads, Seconds: ct.Seconds})
		}
	}
	return recs
}

// OpModel is one operation's trained artefact: the preprocessing pipeline
// and runtime-prediction regressor of Fig 2, plus bookkeeping.
type OpModel struct {
	Kind  string
	Model ml.Regressor
	// Pipeline.InputCols names the Table II features the model reads, in
	// order: all of them, or the subset of a feature-set ablation.
	Pipeline    *preprocess.Pipeline
	EvalSeconds float64 // measured model-evaluation latency per selection
}

// Library is the deployable ADSALA artefact: a versioned per-operation
// bundle of trained models plus the candidate thread counts to rank. The
// GEMM model is always present (the paper's workflow) and serves as the
// fallback for operations without a model of their own, so a library
// trained pre-registry keeps answering every op exactly as before.
type Library struct {
	Platform string
	// Candidates must be final before the first SetModel: each model is
	// compiled against them.
	Candidates []int

	// plans is indexed by ops.Op, one per installed model; nil entries fall
	// back to GEMM.
	plans []*rankPlan

	// format is the artefact format version this library was loaded from
	// (0 for libraries built in-process, which save as the current
	// version). Read through Format.
	format int
}

// Format returns the artefact format version of the library: the version
// of the file it was loaded from, or the current save format for a
// library trained in-process.
func (l *Library) Format() int {
	if l.format == 0 {
		return formatVersion
	}
	return l.format
}

// SetModel installs the trained model for an operation, compiled against
// the library's Candidates. It is the one checkpoint between a model and the
// ranking path: a model whose pipeline, columns or trees could index outside
// the feature row (or a candidate below one thread) is refused here, with
// the offending field named, instead of panicking inside RankOpInto.
func (l *Library) SetModel(op ops.Op, m *OpModel) error {
	p, err := compilePlan(m, l.Candidates)
	if err != nil {
		return fmt.Errorf("core: set %v model: %w", op, err)
	}
	for len(l.plans) <= int(op) {
		l.plans = append(l.plans, nil)
	}
	l.plans[op] = p
	return nil
}

// Feasible returns the library a host limited to max threads ranks: the same
// models compiled over the candidates ≤ max, or over the smallest candidate
// when none qualifies (a decision must name one). Scores are independent of
// the other rows (RankOpInto's contract), so the view's decision is the
// argmin of the full ranking's scores over the kept candidates, and its cold
// rank costs only the rows that can run. When nothing is cut the receiver
// itself is returned: an unclamped host ranks the artefact bit for bit as
// before.
func (l *Library) Feasible(max int) *Library {
	var keep []int
	for _, c := range l.Candidates {
		if c <= max {
			keep = append(keep, c)
		}
	}
	if len(keep) == 0 && len(l.Candidates) > 0 {
		keep = []int{slices.Min(l.Candidates)}
	}
	if len(keep) == len(l.Candidates) {
		return l
	}
	view := &Library{Platform: l.Platform, Candidates: keep, format: l.format}
	for _, op := range l.TrainedOps() {
		if err := view.SetModel(op, l.plans[op].mod); err != nil {
			// The model compiled against a superset of these candidates.
			panic(fmt.Sprintf("core: feasible view: %v", err))
		}
	}
	return view
}

// planFor returns the op's compiled model, falling back to GEMM's.
func (l *Library) planFor(op ops.Op) *rankPlan {
	if l.HasModel(op) {
		return l.plans[op]
	}
	if l.HasModel(ops.GEMM) {
		return l.plans[ops.GEMM]
	}
	return nil
}

// ModelFor returns the operation's model, falling back to the GEMM model
// when the op has none of its own. Nil only on an empty (untrained) bundle.
func (l *Library) ModelFor(op ops.Op) *OpModel {
	if p := l.planFor(op); p != nil {
		return p.mod
	}
	return nil
}

// HasModel reports whether the op has a model of its own (no fallback).
func (l *Library) HasModel(op ops.Op) bool {
	return int(op) < len(l.plans) && l.plans[op] != nil
}

// TrainedOps returns the operations with a model of their own, in op order.
func (l *Library) TrainedOps() []ops.Op {
	var out []ops.Op
	for i, p := range l.plans {
		if p != nil {
			out = append(out, ops.Op(i))
		}
	}
	return out
}

// ModelKind returns the selected model family of the primary (GEMM) model.
func (l *Library) ModelKind() string {
	if m := l.ModelFor(ops.GEMM); m != nil {
		return m.Kind
	}
	return ""
}

// EvalSeconds returns the measured model-evaluation latency per selection of
// the primary (GEMM) model.
func (l *Library) EvalSeconds() float64 {
	if m := l.ModelFor(ops.GEMM); m != nil {
		return m.EvalSeconds
	}
	return 0
}

// Scratch holds the reusable buffers of one allocation-free ranking pass,
// sized for every model in the bundle. A Scratch is not safe for concurrent
// use; pool one per goroutine (the serve engine keeps them in a sync.Pool).
type Scratch struct {
	raw  []float64 // full Table II feature row
	x    []float64 // model input, candidates × kept columns, row-major
	pred []float64 // the model's prediction per candidate (target space)
}

// NewScratch returns ranking buffers sized for this library (the widest of
// its per-op models, so one scratch serves any op).
func (l *Library) NewScratch() *Scratch {
	width := 0
	for _, p := range l.plans {
		if p != nil && len(p.cols) > width {
			width = len(p.cols)
		}
	}
	rows, raw := len(l.Candidates), len(features.Columns())
	buf := make([]float64, raw+rows*width+rows)
	return &Scratch{
		raw:  buf[:raw:raw],
		x:    buf[raw : raw+rows*width : raw+rows*width],
		pred: buf[raw+rows*width:],
	}
}

// RankOpInto ranks every candidate thread count by the op's predicted
// runtime using the scratch buffers and returns the index of the argmin in
// Candidates (the first, on ties). When scores is non-nil it must have
// len(Candidates) and receives the predicted wall time in seconds for each
// candidate (target untransformed). The library itself is read-only here, so
// concurrent calls with distinct scratches are safe.
//
// All candidates are scored in one pass over a candidates × columns matrix:
// a shape-only column is transformed once and broadcast, the thread-count
// column was transformed when the model was installed, and only the Group 2
// columns are transformed per candidate. Every cell is the value the
// single-configuration path (PredictOpSecondsInto) computes for that
// candidate, and ml.PredictRows returns Predict's bits, so scores and
// decisions are exactly those of ranking one candidate at a time.
//
//adsala:zeroalloc
func (l *Library) RankOpInto(op ops.Op, m, k, n int, s *Scratch, scores []float64) int {
	p := l.planFor(op)
	pipe := p.mod.Pipeline
	w := len(p.cols)
	x, pred := s.x[:len(l.Candidates)*w], s.pred[:len(l.Candidates)]
	copy(x, p.base)
	features.RowInto(m, k, n, l.Candidates[0], s.raw)
	for i, c := range p.cols {
		if c.dep != features.ShapeOnly {
			continue
		}
		v := pipe.TransformColumn(c.in, s.raw[c.src])
		for j := i; j < len(x); j += w {
			x[j] = v
		}
	}
	if p.mixed {
		for r, cand := range l.Candidates {
			if r > 0 {
				features.RowInto(m, k, n, cand, s.raw)
			}
			row := x[r*w : (r+1)*w]
			for i, c := range p.cols {
				if c.dep == features.Mixed {
					row[i] = pipe.TransformColumn(c.in, s.raw[c.src])
				}
			}
		}
	}
	ml.PredictRows(p.mod.Model, x, w, p.uniform, pred)
	best := 0
	for i, v := range pred {
		if v < pred[best] {
			best = i
		}
		if scores != nil {
			scores[i] = pipe.UntransformTarget(v)
		}
	}
	return best
}

// OptimalThreadsOp ranks every candidate thread count by the op's predicted
// runtime and returns the argmin (§IV-A). This is the uncached path; use
// the serve engine on hot loops.
func (l *Library) OptimalThreadsOp(op ops.Op, m, k, n int) int {
	return l.Candidates[l.RankOpInto(op, m, k, n, l.NewScratch(), nil)]
}

// PredictOpSeconds returns the op model's runtime estimate for one
// configuration.
func (l *Library) PredictOpSeconds(op ops.Op, m, k, n, threads int) float64 {
	return l.PredictOpSecondsInto(op, m, k, n, threads, l.NewScratch())
}

// PredictOpSecondsInto is PredictOpSeconds evaluated through the scratch
// buffers — the allocation-free form, for hot paths that score a single
// configuration (the serving engine's measured-stream drift hook). The
// caller must hold a model for the op (ModelFor non-nil) and a Scratch
// sized for this library.
//
//adsala:zeroalloc
func (l *Library) PredictOpSecondsInto(op ops.Op, mm, k, n, threads int, s *Scratch) float64 {
	p := l.planFor(op)
	pipe := p.mod.Pipeline
	features.RowInto(mm, k, n, threads, s.raw)
	row := s.x[:len(p.cols)]
	for i, c := range p.cols {
		row[i] = pipe.TransformColumn(c.in, s.raw[c.src])
	}
	return pipe.UntransformTarget(p.mod.Model.Predict(row))
}

// sortedCopy returns a sorted copy of xs (helper shared by train/report).
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}
