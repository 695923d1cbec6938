package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/ops"
)

func TestOpParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Op
	}{{"", OpGEMM}, {"gemm", OpGEMM}, {"syrk", OpSYRK}, {"syr2k", OpSYR2K}} {
		got, err := ParseOp(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseOp(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseOp("trsm"); err == nil {
		t.Error("unknown op should error")
	}
	if OpGEMM.String() != "gemm" || OpSYRK.String() != "syrk" || OpSYR2K.String() != "syr2k" {
		t.Errorf("op names: %q %q %q", OpGEMM, OpSYRK, OpSYR2K)
	}
	if !OpGEMM.Valid() || !OpSYR2K.Valid() || Op(ops.NumOps()).Valid() {
		t.Error("Valid() wrong")
	}
}

// TestCacheOpKeying pins that the same shape triple under different ops
// resolves to distinct cache entries.
func TestCacheOpKeying(t *testing.T) {
	c := NewCache(64, 4)
	c.Put(OpGEMM, 256, 128, 256, 8)
	c.Put(OpSYRK, 256, 128, 256, 4)
	if th, ok := c.Get(OpGEMM, 256, 128, 256); !ok || th != 8 {
		t.Errorf("gemm entry = (%d, %v), want 8", th, ok)
	}
	if th, ok := c.Get(OpSYRK, 256, 128, 256); !ok || th != 4 {
		t.Errorf("syrk entry = (%d, %v), want 4", th, ok)
	}
}

// TestCachePeekCountsNothing pins the read-only contract of peek: the LRU
// order is untouched (the cache itself keeps no hit or miss counters).
func TestCachePeekCountsNothing(t *testing.T) {
	c := NewCache(4, 1) // single shard, 4 slots
	c.Put(OpGEMM, 1, 1, 1, 2)
	if th, ok := c.peek(OpGEMM, 1, 1, 1); !ok || th != 2 {
		t.Fatalf("peek = (%d, %v), want (2, true)", th, ok)
	}
	if _, ok := c.peek(OpGEMM, 9, 9, 9); ok {
		t.Error("peek of absent key reported present")
	}
	// peek must not refresh recency: fill the shard, peek the oldest, add
	// one more — the peeked entry is still the LRU and must be evicted.
	for i := 2; i <= 4; i++ {
		c.Put(OpGEMM, i, i, i, i)
	}
	c.peek(OpGEMM, 1, 1, 1)
	c.Put(OpGEMM, 5, 5, 5, 5)
	if _, ok := c.peek(OpGEMM, 1, 1, 1); ok {
		t.Error("peeked entry survived eviction: peek refreshed the LRU order")
	}
}

// TestEngineOpSeparation checks PredictOp caches per op and CachedChoice is
// counter-neutral.
func TestEngineOpSeparation(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 64, Shards: 4})
	g := predict(eng, OpGEMM, 300, 200, 300)
	s := predict(eng, OpSYRK, 300, 200, 300)
	if g != s {
		// Same underlying shape model today, so decisions agree; the point
		// is the cache entries are distinct (checked below), not the values.
		t.Logf("gemm=%d syrk=%d (model is shape-based; divergence is fine)", g, s)
	}
	st := eng.Stats()
	if st.CacheMisses != 2 {
		t.Errorf("two first-time ops should be two misses, got %d", st.CacheMisses)
	}
	if th, ok := eng.CachedChoice(OpSYRK, 300, 200, 300); !ok || th != s {
		t.Errorf("CachedChoice(syrk) = (%d, %v), want (%d, true)", th, ok, s)
	}
	if _, ok := eng.CachedChoice(OpSYRK, 1, 2, 3); ok {
		t.Error("CachedChoice of never-predicted shape reported present")
	}
	if st2 := eng.Stats(); st2.Predictions != st.Predictions || st2.CacheHits != st.CacheHits || st2.CacheMisses != st.CacheMisses {
		t.Errorf("CachedChoice moved counters: %+v -> %+v", st, st2)
	}
}

// TestRankCountsConsistently pins the satellite bugfix: Rank performs a full
// ranking, so it must count one prediction AND one cache miss — previously
// it inflated predictions while leaving hit/miss untouched, skewing
// hit_rate.
func TestRankCountsConsistently(t *testing.T) {
	l := lib(t)
	eng := NewEngine(l, Options{CacheSize: 64, Shards: 4})
	scores, best, _ := eng.RankOpCtx(bg, OpGEMM, 400, 300, 200)
	if len(scores) != len(eng.Candidates()) || best < 1 {
		t.Fatalf("Rank = (%v, %d)", scores, best)
	}
	st := eng.Stats()
	if st.Predictions != 1 || st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Errorf("after one Rank: predictions=%d hits=%d misses=%d, want 1/0/1",
			st.Predictions, st.CacheHits, st.CacheMisses)
	}
	// The ranked decision lands in the cache for the hot path.
	if got := predict(eng, OpGEMM, 400, 300, 200); got != best {
		t.Errorf("Predict after Rank = %d, want cached %d", got, best)
	}
	if st = eng.Stats(); st.CacheHits != 1 {
		t.Errorf("Predict after Rank should hit the cache: %+v", st)
	}
}

// TestServerOpField drives the op field through /predict and a mixed-op
// /batch.
func TestServerOpField(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)

	want := srv.Engine().Library().OptimalThreadsOp(OpGEMM, 256, 128, 256)
	got, err := client.Predict(bg, PredictRequest{M: 256, K: 128, N: 256, Op: OpSYRK.String()})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("syrk predict = %d, library %d", got, want)
	}
	// The decision was cached under the SYRK key, not the GEMM key.
	if _, ok := srv.Engine().CachedChoice(OpSYRK, 256, 128, 256); !ok {
		t.Error("syrk decision not cached under OpSYRK")
	}
	if _, ok := srv.Engine().CachedChoice(OpGEMM, 256, 128, 256); ok {
		t.Error("syrk decision leaked into the GEMM key")
	}

	// Mixed-op batch preserves request order.
	shapes := mixedShapes(6)
	req := BatchRequest{Shapes: make([]PredictRequest, len(shapes))}
	for i, sh := range shapes {
		op := OpGEMM
		if i%2 == 1 {
			op = OpSYRK
		}
		req.Shapes[i] = PredictRequest{M: sh.M, K: sh.K, N: sh.N, Op: op.String()}
	}
	var resp BatchResponse
	if err := clientDo(client, "/batch", req, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Threads) != len(shapes) {
		t.Fatalf("batch answered %d of %d", len(resp.Threads), len(shapes))
	}
	for i, sh := range shapes {
		if wantT := srv.Engine().Library().OptimalThreadsOp(OpGEMM, sh.M, sh.K, sh.N); resp.Threads[i] != wantT {
			t.Errorf("slot %d: got %d, want %d", i, resp.Threads[i], wantT)
		}
	}

	// Unknown op is a 400.
	r, err := http.Get(ts.URL + "/predict?m=4&k=4&n=4&op=trsm")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op: HTTP %d, want 400", r.StatusCode)
	}
}

// clientDo posts through the client's transport (helper for raw batch
// bodies the typed client API does not express).
func clientDo(c *Client, path string, body, out any) error {
	return c.do(bg, http.MethodPost, path, nil, body, out)
}

// TestClientMixedOpBatchRoundTrip drives a three-op interleaved batch
// through serve.Client: the per-op split must preserve request order, every
// answer must match the op's own uncached ranking, and an unknown op name
// must surface as a 400 with a JSON error body.
func TestClientMixedOpBatchRoundTrip(t *testing.T) {
	srv, ts := testServer(t)
	client := NewClient(ts.URL, nil)
	l := srv.Engine().Library()

	rotation := []Op{OpGEMM, OpSYRK, OpSYR2K}
	shapes := mixedShapes(9)
	reqs := make([]PredictRequest, len(shapes))
	for i, sh := range shapes {
		reqs[i] = PredictRequest{M: sh.M, K: sh.K, N: sh.N, Op: rotation[i%len(rotation)].String()}
	}
	got, err := client.PredictBatch(bg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("batch answered %d of %d", len(got), len(reqs))
	}
	for i, r := range reqs {
		op := rotation[i%len(rotation)]
		if want := l.OptimalThreadsOp(op, r.M, r.K, r.N); got[i] != want {
			t.Errorf("slot %d (%s %dx%dx%d): got %d, want %d", i, r.Op, r.M, r.K, r.N, got[i], want)
		}
		// Each decision landed under its own op key.
		if _, ok := srv.Engine().CachedChoice(op, r.M, r.K, r.N); !ok {
			t.Errorf("slot %d: decision not cached under %s", i, op)
		}
	}

	// Unknown op name inside a batch: 400 with a decodable JSON error body.
	resp, err := http.Post(ts.URL+"/batch", "application/json",
		strings.NewReader(`{"shapes":[{"m":8,"k":8,"n":8,"op":"trsm"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown op in batch: HTTP %d, want 400", resp.StatusCode)
	}
	var apiErr apiError
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("error body not decodable JSON: (%q, %v)", apiErr.Error, err)
	}
	// And through the typed client, the same failure surfaces as an error.
	if _, err := client.PredictBatch(bg, []PredictRequest{{M: 4, K: 4, N: 4, Op: "nope"}}); err == nil {
		t.Error("client should surface the unknown-op error")
	}
}
