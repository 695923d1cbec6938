package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

var (
	libOnce sync.Once
	testLib *core.Library
	libErr  error
)

// lib trains one quick simulated-Gadi library shared by the package tests.
func lib(t *testing.T) *core.Library {
	t.Helper()
	libOnce.Do(func() {
		sim := simtime.New(simtime.DefaultConfig(machine.Gadi()))
		gather := core.GatherConfig{
			Timer:      sim,
			Domain:     sampling.DefaultDomain().WithCapMB(100),
			NumShapes:  80,
			Candidates: core.DefaultCandidates(96),
			Iters:      3,
			Seed:       1,
		}
		cfg := core.DefaultTrainConfig(gather, "Gadi", 48)
		cfg.Models = core.DefaultModels(1, true)
		var res *core.TrainResult
		res, libErr = core.Train(cfg)
		if libErr == nil {
			testLib = res.Library
		}
	})
	if libErr != nil {
		t.Fatal(libErr)
	}
	return testLib
}

// bg is the context of test calls that carry no deadline.
var bg = context.Background()

// predict is PredictOpCtx without a deadline, fallback flag dropped.
func predict(e *Engine, op Op, m, k, n int) int {
	threads, _ := e.PredictOpCtx(bg, op, m, k, n)
	return threads
}

// predictBatch is PredictBatchOpCtx without a deadline, fallback flags
// dropped.
func predictBatch(e *Engine, op Op, shapes []sampling.Shape, out []int) []int {
	out, _ = e.PredictBatchOpCtx(bg, op, shapes, out)
	return out
}

// requests is the wire form of shapes under one op.
func requests(op Op, shapes []sampling.Shape) []PredictRequest {
	reqs := make([]PredictRequest, len(shapes))
	for i, sh := range shapes {
		reqs[i] = PredictRequest{M: sh.M, K: sh.K, N: sh.N, Op: op.String()}
	}
	return reqs
}

// mixedShapes returns n deterministic mixed GEMM shapes.
func mixedShapes(n int) []sampling.Shape {
	sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 7)
	if err != nil {
		panic(err)
	}
	return sampler.Sample(n)
}

// TestEngineMatchesLibrary verifies the cache never changes a decision:
// every engine answer (cold, cached, batched) equals the uncached
// Library.OptimalThreads ranking.
func TestEngineMatchesLibrary(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 256, Shards: 8})
	shapes := mixedShapes(40)
	want := make([]int, len(shapes))
	for i, sh := range shapes {
		want[i] = l.OptimalThreadsOp(OpGEMM, sh.M, sh.K, sh.N)
	}
	for i, sh := range shapes {
		if got := predict(eng, OpGEMM, sh.M, sh.K, sh.N); got != want[i] {
			t.Fatalf("cold %v: engine %d, library %d", sh, got, want[i])
		}
	}
	for i, sh := range shapes { // now served from cache
		if got := predict(eng, OpGEMM, sh.M, sh.K, sh.N); got != want[i] {
			t.Fatalf("cached %v: engine %d, library %d", sh, got, want[i])
		}
	}
	batch := predictBatch(eng, OpGEMM, shapes, nil)
	for i := range shapes {
		if batch[i] != want[i] {
			t.Fatalf("batch %v: engine %d, library %d", shapes[i], batch[i], want[i])
		}
	}
	st := eng.Stats()
	if st.CacheHits == 0 || st.CacheMisses != int64(len(shapes)) {
		t.Errorf("stats: hits %d misses %d, want misses = %d", st.CacheHits, st.CacheMisses, len(shapes))
	}
	if st.HitRate <= 0 || st.HitRate >= 1 {
		t.Errorf("hit rate %v out of (0,1)", st.HitRate)
	}
	// Every miss ranked, and the ranking latency is on /metrics.
	text := engineMetrics(eng)
	lbl := `{op="gemm"}`
	if n, sum := metricValue(t, text, "adsala_serve_decision_latency_seconds_count"+lbl), metricValue(t, text, "adsala_serve_decision_latency_seconds_sum"+lbl); n != float64(st.CacheMisses) || sum <= 0 {
		t.Errorf("decision latency histogram holds %v rankings over %vs, want %d rankings over a positive time", n, sum, st.CacheMisses)
	}
}

func TestEngineRankDetail(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{})
	scores, best, _ := eng.rankOpCtx(bg, OpGEMM, 512, 512, 512)
	cands := eng.Candidates()
	if len(scores) != len(cands) {
		t.Fatalf("%d scores for %d candidates", len(scores), len(cands))
	}
	bestIdx := 0
	for i := range scores {
		if scores[i] <= 0 {
			t.Fatalf("candidate %d predicted %v s", cands[i], scores[i])
		}
		if scores[i] < scores[bestIdx] {
			bestIdx = i
		}
	}
	if cands[bestIdx] != best {
		t.Errorf("argmin of scores is %d, Rank chose %d", cands[bestIdx], best)
	}
	if got := l.OptimalThreadsOp(OpGEMM, 512, 512, 512); got != best {
		t.Errorf("Rank chose %d, library %d", best, got)
	}
}

// TestEngineBatchDedup verifies that identical shapes within one batch are
// ranked once: a batch of N copies of a cold shape performs exactly one
// model evaluation, and every copy receives the same (correct) decision —
// the one PredictOpCtx gives the shape on its own.
func TestEngineBatchDedup(t *testing.T) {
	l := lib(t)
	base := mixedShapes(4)
	batch := make([]sampling.Shape, 0, 40)
	for i := 0; i < 10; i++ {
		batch = append(batch, base...)
	}
	eng := NewEngine(l, Options{})
	buf := make([]int, len(batch))
	out := predictBatch(eng, OpGEMM, batch, buf)
	if &out[0] != &buf[0] {
		t.Error("PredictBatch reallocated a sufficient out slice")
	}
	single := NewEngine(l, Options{})
	for i, sh := range batch {
		if want := l.OptimalThreadsOp(OpGEMM, sh.M, sh.K, sh.N); out[i] != want {
			t.Fatalf("shape %v: got %d, want %d", sh, out[i], want)
		}
		if one := predict(single, OpGEMM, sh.M, sh.K, sh.N); out[i] != one {
			t.Fatalf("shape %v: batch %d, one at a time %d", sh, out[i], one)
		}
	}
	st := eng.Stats()
	if st.CacheMisses != int64(len(base)) {
		t.Errorf("%d cache misses for %d distinct shapes (dedup not applied)", st.CacheMisses, len(base))
	}
	// Counters keep per-request semantics: every served decision counts
	// as a prediction, and repeats within the batch count as hits.
	if st.Predictions != int64(len(batch)) {
		t.Errorf("predictions = %d, want %d", st.Predictions, len(batch))
	}
	if want := int64(len(batch) - len(base)); st.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, want)
	}
	if got := single.Stats(); got.CacheHits != st.CacheHits || got.CacheMisses != st.CacheMisses {
		t.Errorf("batch booked %d hits / %d misses, the same shapes one at a time %d / %d",
			st.CacheHits, st.CacheMisses, got.CacheHits, got.CacheMisses)
	}
	// Order must be preserved when duplicates are interleaved.
	interleaved := []sampling.Shape{base[0], base[1], base[0], base[2], base[1], base[0]}
	out = predictBatch(NewEngine(l, Options{}), OpGEMM, interleaved, nil)
	for i, sh := range interleaved {
		if want := l.OptimalThreadsOp(OpGEMM, sh.M, sh.K, sh.N); out[i] != want {
			t.Fatalf("interleaved %d (%v): got %d, want %d", i, sh, out[i], want)
		}
	}
}

// mutexPredictor is the paper's Fig 3 runtime path taken literally — the
// last GEMM shape remembered behind one mutex — kept only as the foil of
// TestShardedThroughputVsMutexPredictor.
type mutexPredictor struct {
	lib *core.Library

	mu         sync.Mutex
	m, k, n    int
	lastChoice int
	scratch    *core.Scratch
}

func (p *mutexPredictor) OptimalThreads(m, k, n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastChoice > 0 && p.m == m && p.k == k && p.n == n {
		return p.lastChoice
	}
	best := p.lib.Candidates[p.lib.RankOpInto(OpGEMM, m, k, n, p.scratch, nil)]
	p.m, p.k, p.n, p.lastChoice = m, k, n, best
	return best
}

// TestShardedThroughputVsMutexPredictor is the tentpole acceptance check:
// with 8 goroutines issuing mixed-shape predictions, the warmed sharded
// cache must deliver at least 5x the throughput of the single-mutex,
// single-entry predictor, while agreeing on every decision.
func TestShardedThroughputVsMutexPredictor(t *testing.T) {
	l := lib(t)
	shapes := mixedShapes(64)

	const goroutines = 8
	const itersPer = 400

	run := func(choose func(m, k, n int) int) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < itersPer; i++ {
					sh := shapes[(g+i)%len(shapes)]
					choose(sh.M, sh.K, sh.N)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}

	eng := NewEngine(l, Options{CacheSize: 256, Shards: 16})
	predictBatch(eng, OpGEMM, shapes, nil) // warm the sharded cache
	pred := &mutexPredictor{lib: l, scratch: l.NewScratch()}

	// Decisions must agree exactly before any timing comparison.
	for _, sh := range shapes {
		if e, p := predict(eng, OpGEMM, sh.M, sh.K, sh.N), pred.OptimalThreads(sh.M, sh.K, sh.N); e != p {
			t.Fatalf("shape %v: engine %d, predictor %d", sh, e, p)
		}
	}

	mutexTime := run(pred.OptimalThreads)
	shardedTime := run(func(m, k, n int) int { return predict(eng, OpGEMM, m, k, n) })
	ratio := float64(mutexTime) / float64(shardedTime)
	t.Logf("mixed-shape throughput: mutex predictor %v, sharded cache %v (%.0fx)",
		mutexTime, shardedTime, ratio)
	if ratio < 5 {
		t.Errorf("sharded cache only %.1fx faster than the mutex predictor, want >= 5x", ratio)
	}
}
