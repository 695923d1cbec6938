package serve

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// Options configures an Engine.
type Options struct {
	// CacheSize is the total decision-cache capacity (entries); rounded up
	// to a power of two. 0 selects the default (4096).
	CacheSize int
	// Shards is the cache shard count; rounded up to a power of two.
	// 0 selects the default (16).
	Shards int
}

// Engine answers thread-selection queries for one trained library. It
// generalises the §III-C repeated-shape cache: decisions are memoised in a
// sharded CLOCK table keyed by (operation, shape) and read without a lock,
// misses rank the candidates with
// pooled scratch buffers (no per-call allocation in steady state), and a
// batch is the same decision once per shape, in order. Safe for concurrent
// use; the parallelism is across calls, never inside one.
//
// Every ranking goes through the library's per-op model bundle: operations
// with a trained model of their own (e.g. SYRK after Train(Ops:
// [gemm, syrk])) rank with it, others fall back to the primary GEMM model —
// and the op always keys the decision cache, so decisions never alias
// across operations either way.
type Engine struct {
	// state bundles everything a decision depends on — library, scratch
	// pool, decision cache and generation. SwapLibrary publishes a fresh
	// bundle in one atomic store, and every call loads it once and uses
	// only what it holds, so a decision ranked with one artefact can never
	// land in (or be served from) another artefact's cache.
	state atomic.Pointer[libState]
	opts  Options // the cache geometry serves every generation

	// The decision ledger: per-op {hits, misses}, indexed by ops.Op. They
	// are the only decision counters: Stats sums them over the ops and
	// /metrics renders them per op.
	serving []opCounters

	fallbacks atomic.Int64 // selections answered by the heuristic fallback

	// decLatency holds one latency histogram per op for the cache-miss
	// ranking path (nanosecond observations, exposed as seconds). They live
	// on the engine from construction — recording is a few atomic adds —
	// and are attached to a Prometheus registry by RegisterMetrics.
	decLatency []*obs.Histogram

	// recorder is the optional flight recorder (nil when tracing is off —
	// the hot path pays one atomic pointer load).
	recorder atomic.Pointer[trace.Recorder]

	// drift is the optional online model-quality monitor (nil when drift
	// monitoring is off — the measured hot path pays one atomic pointer
	// load, exactly like the recorder).
	drift atomic.Pointer[drift.Monitor]
}

// opCounters is one operation's entry in the ledger.
type opCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

// libState is one artefact generation: the library, a scratch pool sized
// for its models and the decision cache its rankings fill. All three live
// and die together: after a swap, scratches sized for the old bundle drain
// into the old pool and old-model decisions into the old cache, and both
// are collected — a reloaded artefact can receive neither an undersized
// buffer nor a decision it did not make.
type libState struct {
	lib     *core.Library
	scratch sync.Pool // *rankScratch
	cache   *Cache
	// generation counts artefact swaps (0 = the boot artefact); /healthz
	// surfaces it so an operator can confirm a reload took effect even
	// when old and new artefacts share a format version.
	generation int64
}

// rankScratch is one pooled ranking workspace: the model-evaluation scratch
// plus a candidate-score buffer, so the flight recorder can capture the
// winner's predicted runtime on cache misses without allocating a score
// vector per request.
type rankScratch struct {
	s      *core.Scratch
	scores []float64
}

// newState builds generation 0 of lib; SwapLibrary numbers later ones.
func (e *Engine) newState(lib *core.Library) *libState {
	st := &libState{lib: lib, cache: NewCache(e.opts.CacheSize, e.opts.Shards)}
	st.scratch.New = func() any {
		return &rankScratch{s: lib.NewScratch(), scores: make([]float64, len(lib.Candidates))}
	}
	return st
}

// NewEngine returns an Engine over the library with the given options.
func NewEngine(lib *core.Library, opts Options) *Engine {
	e := &Engine{
		opts:       opts,
		serving:    make([]opCounters, ops.NumOps()),
		decLatency: make([]*obs.Histogram, ops.NumOps()),
	}
	for i := range e.decLatency {
		e.decLatency[i] = obs.NewHistogram(1e-9)
	}
	e.state.Store(e.newState(lib))
	return e
}

// Library returns the library the engine currently serves (the latest one
// after hot reloads).
func (e *Engine) Library() *core.Library { return e.state.Load().lib }

// SwapLibrary atomically replaces the served artefact — the hot-reload
// path. The new generation starts with an empty decision cache of the same
// geometry (the old one's decisions rank with the old models) that live
// traffic refills, one ranking per distinct shape. Requests in flight finish
// against whichever generation they started with, cache included; no request
// ever observes a half-swapped state.
func (e *Engine) SwapLibrary(lib *core.Library) {
	next := e.newState(lib)
	for {
		old := e.state.Load()
		next.generation = old.generation + 1
		if e.state.CompareAndSwap(old, next) {
			return
		}
	}
}

// Generation returns the number of artefact swaps since boot.
func (e *Engine) Generation() int64 { return e.state.Load().generation }

// Cache returns the decision cache of the generation currently served.
func (e *Engine) Cache() *Cache { return e.state.Load().cache }

// PredictOpCtx returns the model-selected thread count for one operation at
// its canonical (m, k, n) triple (SYRK and SYR2K callers pass the (n, k, n)
// triple of the equivalent output shape): the decision ranks with the op's
// model and is cached under (op, shape). It degrades instead of failing —
// the answer is never an error. Cached decisions are served regardless of
// ctx (a cache read is nanoseconds). A cache miss ranks the candidates
// unless the artefact holds no model for the op or ctx has already expired
// (an overloaded or deadline-blown request must not queue behind a model
// evaluation it has no time for) — in those cases the deterministic
// heuristic answers instead, fallback returns true, and the decision is NOT
// cached, so the model takes over the moment it can answer again.
func (e *Engine) PredictOpCtx(ctx context.Context, op Op, m, k, n int) (threads int, fallback bool) {
	return e.decide(ctx, e.state.Load(), op, m, k, n)
}

// decide is PredictOpCtx against one loaded state.
func (e *Engine) decide(ctx context.Context, st *libState, op Op, m, k, n int) (threads int, fallback bool) {
	if threads, ok := st.cache.Get(op, m, k, n); ok {
		e.counters(op).hits.Add(1)
		e.traceDecision(op, m, k, n, threads, 0, trace.FlagCacheHit)
		return threads, false
	}
	return e.miss(ctx, st, op, m, k, n, nil)
}

// miss answers one decision the cache did not: a full ranking with st's
// model (per-candidate seconds into scores when non-nil), cached; or, when
// there is no model or no time left, the heuristic — counted and traced as
// degraded-mode traffic and never cached.
func (e *Engine) miss(ctx context.Context, st *libState, op Op, m, k, n int, scores []float64) (threads int, fallback bool) {
	e.counters(op).misses.Add(1)
	if st.lib.ModelFor(op) == nil || ctx.Err() != nil {
		e.fallbacks.Add(1)
		threads = heuristicChoice(st.lib.Candidates, op, m, k, n)
		e.traceDecision(op, m, k, n, threads, 0, trace.FlagFallback)
		return threads, true
	}
	threads, predNs := e.rankWith(st, op, m, k, n, scores)
	st.cache.Put(op, m, k, n, threads)
	e.traceDecision(op, m, k, n, threads, predNs, 0)
	return threads, false
}

// heuristicChoice is the deterministic degraded-mode thread choice, served
// when no model can answer (missing from the artefact, or no time budget
// left to evaluate one): the largest candidate not exceeding GOMAXPROCS,
// clamped down for small problems (fork/join overhead dominates tiny
// kernels — the same intuition the paper's trained policy learns, reduced
// to a deterministic rule). Purely a function of (candidates, op, shape,
// GOMAXPROCS): two replicas degrade to identical answers.
func heuristicChoice(candidates []int, op Op, m, k, n int) int {
	if len(candidates) == 0 {
		return 1
	}
	limit := runtime.GOMAXPROCS(0)
	// Problem-size clamp on the parallelism budget, by FLOP count of the
	// op at this shape (registry-supplied, so new ops inherit the rule).
	flops := op.Spec().Flops(m, k, n)
	switch {
	case flops < 1e6:
		limit = 1
	case flops < 1e8:
		if limit > 4 {
			limit = 4
		}
	}
	best, min := 0, 0
	for i, c := range candidates {
		if i == 0 || c < candidates[min] {
			min = i
		}
		if c <= limit && (best == 0 || c > best) {
			best = c
		}
	}
	if best == 0 {
		// Every candidate exceeds the budget; the smallest is the least bad.
		return candidates[min]
	}
	return best
}

// counters returns the op's entry in the ledger (GEMM for out-of-range ops,
// so a miscast op can never panic the hot path).
func (e *Engine) counters(op Op) *opCounters {
	if int(op) >= len(e.serving) {
		op = OpGEMM
	}
	return &e.serving[op]
}

// CachedChoice returns the cached decision for (op, shape) without ranking,
// counting, or marking it referenced — the read-only introspection path.
func (e *Engine) CachedChoice(op Op, m, k, n int) (threads int, ok bool) {
	return e.state.Load().cache.peek(op, m, k, n)
}

// rankWith runs one full candidate ranking with the given library state's
// model and a pooled scratch, recording the evaluation latency. scores,
// when non-nil, receives per-candidate predicted seconds. The state is
// passed in (not re-loaded) so one ranking uses a consistent
// library/scratch pair across a concurrent SwapLibrary.
//
// predNs is the winner's model-predicted runtime in nanoseconds — the
// flight recorder's label. It is only computed when someone will read it
// (caller-supplied scores, or a recorder attached); with tracing off and
// scores nil the scoring pass is skipped exactly as before.
//
//adsala:zeroalloc
func (e *Engine) rankWith(st *libState, op Op, m, k, n int, scores []float64) (best int, predNs int64) {
	rs := st.scratch.Get().(*rankScratch)
	sc := scores
	if sc == nil && e.recorder.Load() != nil {
		sc = rs.scores
	}
	start := time.Now()
	idx := st.lib.RankOpInto(op, m, k, n, rs.s, sc)
	best = st.lib.Candidates[idx]
	e.latencyHist(op).Observe(time.Since(start).Nanoseconds())
	if sc != nil && idx < len(sc) {
		predNs = int64(sc[idx] * 1e9)
	}
	st.scratch.Put(rs)
	return best, predNs
}

// latencyHist returns the op's decision-latency histogram (GEMM for
// out-of-range ops, mirroring counters).
func (e *Engine) latencyHist(op Op) *obs.Histogram {
	if int(op) >= len(e.decLatency) {
		op = OpGEMM
	}
	return e.decLatency[op]
}

// Candidates returns the candidate thread counts the engine ranks.
func (e *Engine) Candidates() []int {
	return append([]int(nil), e.state.Load().lib.Candidates...)
}

// RankOpCtx returns the per-candidate predicted runtimes (seconds, aligned
// with Candidates()) and the selected thread count for one shape. The cache
// cannot answer it (it stores decisions, not score vectors), so every call
// ranks afresh and is counted as one cache miss — keeping the /stats
// hit_rate consistent with the work actually performed. It degrades exactly
// as PredictOpCtx does: on a model-less artefact or an expired ctx the
// heuristic answers with zeroed scores (nothing was scored), fallback is
// true and nothing is cached.
func (e *Engine) RankOpCtx(ctx context.Context, op Op, m, k, n int) (scores []float64, best int, fallback bool) {
	st := e.state.Load()
	scores = make([]float64, len(st.lib.Candidates))
	best, fallback = e.miss(ctx, st, op, m, k, n, scores)
	return scores, best, fallback
}

// PredictBatchOpCtx answers every shape under one operation kind, in
// order, and writes the chosen thread counts into out (allocated when nil or
// too short; a sufficient out makes the call allocation-free). A batch is a
// loop over the one decision path on one loaded state: the first occurrence
// of a shape the cache does not hold is a miss that ranks and caches it, and
// every repeat — within the batch or from an earlier call — is a cache hit
// like any other, counted and traced as one. A batch of N repeated cold
// shapes therefore costs one model evaluation, not N, with no bookkeeping of
// its own.
//
// It degrades like PredictOpCtx: fallback is nil when every decision came
// from the cache or a model; otherwise it has len(shapes) with true at each
// slot answered by the deterministic heuristic (ctx expired mid-batch, or
// the artefact holds no model for the op). Heuristic answers are never
// cached, so a repeat of one is a second miss and a second fallback.
func (e *Engine) PredictBatchOpCtx(ctx context.Context, op Op, shapes []sampling.Shape, out []int) (threads []int, fallback []bool) {
	st := e.state.Load()
	if len(out) < len(shapes) {
		out = make([]int, len(shapes))
	}
	out = out[:len(shapes)]
	for i, sh := range shapes {
		var fb bool
		out[i], fb = e.decide(ctx, st, op, sh.M, sh.K, sh.N)
		if fb {
			if fallback == nil {
				fallback = make([]bool, len(shapes))
			}
			fallback[i] = true
		}
	}
	return out, fallback
}

// Stats is the decision ledger: a point-in-time snapshot of the engine's
// hit, miss and fallback counters. Everything else the engine counts is on
// /metrics (RegisterMetrics).
type Stats struct {
	Predictions int64   `json:"predictions"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"`
	// Fallbacks counts decisions answered by the deterministic heuristic
	// instead of a model — the degraded-mode traffic (model missing from
	// the artefact, or the request deadline expired before ranking).
	Fallbacks int64 `json:"fallbacks,omitempty"`
}

// Stats returns the current ledger. Each per-op atomic is loaded exactly
// once and every other figure is a sum or ratio of those loads, so one
// snapshot is internally consistent by construction: Predictions is
// CacheHits + CacheMisses and HitRate is their ratio.
func (e *Engine) Stats() Stats {
	s := Stats{Fallbacks: e.fallbacks.Load()}
	for i := range e.serving {
		s.CacheHits += e.serving[i].hits.Load()
		s.CacheMisses += e.serving[i].misses.Load()
	}
	s.Predictions = s.CacheHits + s.CacheMisses
	if s.Predictions > 0 {
		s.HitRate = float64(s.CacheHits) / float64(s.Predictions)
	}
	return s
}
