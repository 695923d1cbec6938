package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/drift"
	"repro/internal/sampling"
	"repro/internal/trace"
)

// TestRankWithZeroAlloc pins the //adsala:zeroalloc contract on the
// engine's cache-miss ranking path: once the scratch pool is primed,
// rankWith — pooled scratch, full candidate ranking, latency-histogram
// observation — allocates nothing per call.
func TestRankWithZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	e := NewEngine(lib(t), Options{})
	st := e.state.Load()
	// Prime the pool so the steady state (reuse, not construction) is
	// what gets measured.
	e.rankWith(st, OpGEMM, 512, 256, 384, nil)
	if n := testing.AllocsPerRun(200, func() {
		e.rankWith(st, OpGEMM, 512, 256, 384, nil)
	}); n != 0 {
		t.Errorf("rankWith allocates %.1f/op, want 0", n)
	}
}

// TestCacheZeroAlloc pins the //adsala:zeroalloc contract of the cache's
// read path: a Get hit (setting the referenced bit, then with it set), a Get
// miss and a peek allocate nothing, and neither does a Put that evicts.
func TestCacheZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	c := NewCache(16, 1)
	for i := 0; i < 16; i++ {
		c.Put(OpGEMM, i, i, i, 1+i%4)
	}
	i := 0
	for name, f := range map[string]func(){
		"Get hit":  func() { c.Get(OpGEMM, i%16, i%16, i%16); i++ },
		"Get miss": func() { c.Get(OpSYRK, 99, 99, 99) },
		"peek":     func() { c.peek(OpGEMM, 3, 3, 3) },
		"Put":      func() { c.Put(OpGEMM, 100+i, 7, 7, 2); i++ },
	} {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", name, n)
		}
	}
}

// TestPredictZeroAlloc pins the untraced serve path end to end: a cache hit
// (state load, shard probe, one ledger add), a full cache miss (rank, cache
// insert with eviction) and RecordMeasured with nothing attached all stay
// at 0 allocs/op.
func TestPredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	e := NewEngine(lib(t), Options{CacheSize: 16, Shards: 1})
	predict(e, OpGEMM, 512, 256, 384)
	if n := testing.AllocsPerRun(200, func() {
		predict(e, OpGEMM, 512, 256, 384)
	}); n != 0 {
		t.Errorf("cache-hit PredictOpCtx allocates %.1f/op, want 0", n)
	}
	m := 1000
	for ; m < 1032; m++ { // fill the cache, so every further miss evicts
		predict(e, OpGEMM, m, 64, 64)
	}
	if n := testing.AllocsPerRun(200, func() {
		predict(e, OpGEMM, m, 64, 64)
		m++
	}); n != 0 {
		t.Errorf("cache-miss PredictOpCtx allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		e.RecordMeasured(OpGEMM, 512, 256, 384, 8, 12345)
	}); n != 0 {
		t.Errorf("RecordMeasured with nothing attached allocates %.1f/op, want 0", n)
	}
}

// TestPredictBatchZeroAlloc pins that a batch is the decision loop and
// nothing else: with a caller-supplied out, PredictBatchOpCtx over 16 shapes
// allocates nothing whether every shape hits or every shape misses (rank,
// cache insert with eviction).
func TestPredictBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	e := NewEngine(lib(t), Options{CacheSize: 16, Shards: 1})
	shapes := mixedShapes(16)
	out := make([]int, len(shapes))
	predictBatch(e, OpGEMM, shapes, out) // fills the cache: every later miss evicts
	if n := testing.AllocsPerRun(200, func() {
		predictBatch(e, OpGEMM, shapes, out)
	}); n != 0 {
		t.Errorf("all-hit PredictBatchOpCtx allocates %.1f/op, want 0", n)
	}
	m := 1000
	if n := testing.AllocsPerRun(50, func() {
		for i := range shapes {
			shapes[i] = sampling.Shape{M: m, K: 64, N: 64}
			m++
		}
		predictBatch(e, OpGEMM, shapes, out)
	}); n != 0 {
		t.Errorf("all-miss PredictBatchOpCtx allocates %.1f/op, want 0", n)
	}
	if st := e.Stats(); st.CacheHits != 16*201 || st.CacheMisses != 16*52 {
		t.Errorf("batches booked %d hits / %d misses, want %d / %d", st.CacheHits, st.CacheMisses, 16*201, 16*52)
	}
}

// TestPredictTracedZeroAlloc pins that attaching a flight recorder keeps
// the serve path allocation-free: both the cache-hit path (traceDecision +
// buffered record) and the cache-miss path (rankWith with the pooled score
// buffer, then the record) stay at 0 allocs/op.
func TestPredictTracedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	e := NewEngine(lib(t), Options{})
	rec, err := trace.Open(filepath.Join(t.TempDir(), "cap"), trace.Options{})
	if err != nil {
		t.Fatalf("trace.Open: %v", err)
	}
	defer rec.Close()
	e.SetRecorder(rec)

	// Cache-hit path: one miss to seed, then hits.
	predict(e, OpGEMM, 512, 256, 384)
	if n := testing.AllocsPerRun(200, func() {
		predict(e, OpGEMM, 512, 256, 384)
	}); n != 0 {
		t.Errorf("traced cache-hit PredictOp allocates %.1f/op, want 0", n)
	}

	// Cache-miss ranking path with the recorder's predicted-ns capture.
	st := e.state.Load()
	e.rankWith(st, OpGEMM, 512, 256, 384, nil)
	if n := testing.AllocsPerRun(200, func() {
		e.rankWith(st, OpGEMM, 512, 256, 384, nil)
	}); n != 0 {
		t.Errorf("traced rankWith allocates %.1f/op, want 0", n)
	}

	// Measurement records from the facade path.
	if n := testing.AllocsPerRun(200, func() {
		e.RecordMeasured(OpGEMM, 512, 256, 384, 8, 12345)
	}); n != 0 {
		t.Errorf("RecordMeasured allocates %.1f/op, want 0", n)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records during the run", rec.Dropped())
	}
}

// TestRecordMeasuredDriftZeroAlloc pins the acceptance criterion of the
// drift tentpole: with a drift monitor attached, RecordMeasured — model
// evaluation with the pooled scratch, bucket routing, two windowed-moments
// updates, two histogram observations — stays at 0 allocs/op on the
// engine's measured hot path.
func TestRecordMeasuredDriftZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	e := NewEngine(lib(t), Options{})
	e.SetDriftMonitor(drift.NewMonitor(drift.Config{}))

	// Prime the scratch pool so steady-state reuse is what gets measured.
	e.RecordMeasured(OpGEMM, 512, 256, 384, 8, 12345)
	if n := testing.AllocsPerRun(500, func() {
		e.RecordMeasured(OpGEMM, 512, 256, 384, 8, 12345)
	}); n != 0 {
		t.Errorf("drift-monitored RecordMeasured allocates %.1f/op, want 0", n)
	}

	// The symmetric-rank ops route through their own FLOP weights.
	e.RecordMeasured(OpSYRK, 512, 256, 512, 8, 12345)
	if n := testing.AllocsPerRun(500, func() {
		e.RecordMeasured(OpSYRK, 512, 256, 512, 8, 12345)
	}); n != 0 {
		t.Errorf("drift-monitored RecordMeasured(SYRK) allocates %.1f/op, want 0", n)
	}
}

// replayBody is a request body that can be rewound between runs.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// sinkWriter is a ResponseWriter that keeps its header map and the last
// body, so repeated ServeHTTP calls measure the handler alone.
type sinkWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *sinkWriter) Header() http.Header  { return w.header }
func (w *sinkWriter) WriteHeader(code int) { w.code = code }
func (w *sinkWriter) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// TestServeHTTPAllocs pins the allocations of Server.ServeHTTP on a /predict
// hit and a 16-shape /batch hit: admission, body read and decode, decisions,
// answer. With encoding/json both ways these were 16 and 44; what is left is
// the Content-Type header value and the /predict query map. The decisions
// run under the request's own context, and the /batch handler's shape, op
// and decision slices live in the pooled codec.
func TestServeHTTPAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	srv := NewServer(NewEngine(lib(t), Options{CacheSize: 256, Shards: 8}))
	one, _ := json.Marshal(PredictRequest{M: 512, K: 256, N: 384, Op: "gemm"})
	batch, _ := json.Marshal(BatchRequest{Shapes: requests(OpGEMM, mixedShapes(16))})
	for _, tc := range []struct {
		path string
		body []byte
		pin  float64
	}{
		{"/predict", one, 2},
		{"/batch", batch, 1},
	} {
		var body replayBody
		req := httptest.NewRequest(http.MethodPost, tc.path, nil)
		req.Body = &body
		w := &sinkWriter{header: http.Header{}}
		serve := func() {
			body.Reset(tc.body)
			srv.ServeHTTP(w, req)
		}
		serve() // decide once: the measured calls are cache hits
		n := testing.AllocsPerRun(200, serve)
		if w.code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", tc.path, w.code, w.body)
		}
		t.Logf("%s: %.0f allocs/op", tc.path, n)
		if n > tc.pin {
			t.Errorf("%s hit allocates %.0f/op, pinned at %.0f", tc.path, n, tc.pin)
		}
	}
}
