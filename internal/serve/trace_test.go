package serve

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// openRecorder attaches a fresh flight recorder to the engine and returns
// it with a collector that flushes and re-reads the capture.
func openRecorder(t *testing.T, e *Engine) (*trace.Recorder, func() []trace.Record) {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatalf("trace.Open: %v", err)
	}
	t.Cleanup(func() { rec.Close() })
	e.SetRecorder(rec)
	return rec, func() []trace.Record {
		rec.Flush()
		files, err := trace.Files(prefix)
		if err != nil {
			t.Fatalf("trace.Files: %v", err)
		}
		var out []trace.Record
		if _, err := trace.ScanFiles(files, func(r *trace.Record) error {
			out = append(out, *r)
			return nil
		}); err != nil {
			t.Fatalf("ScanFiles: %v", err)
		}
		return out
	}
}

// TestEngineTraceFlags pins what each decision path records: a miss carries
// the model's predicted ns and no flags, a hit carries FlagCacheHit, a
// fallback FlagFallback, and the recorded (op, shape, threads) match the
// answers the engine returned.
func TestEngineTraceFlags(t *testing.T) {
	e := NewEngine(lib(t), Options{})
	_, collect := openRecorder(t, e)

	missThreads := predict(e, OpGEMM, 512, 256, 384)
	hitThreads := predict(e, OpGEMM, 512, 256, 384)
	ctx, cancel := context.WithCancel(bg)
	cancel() // expired context forces the heuristic fallback on a miss
	fbThreads, fb := e.PredictOpCtx(ctx, OpGEMM, 100, 100, 100)
	if !fb {
		t.Fatal("expected a fallback decision from the cancelled context")
	}
	e.RecordMeasured(OpGEMM, 512, 256, 384, missThreads, 4242)

	recs := collect()
	if len(recs) != 4 {
		t.Fatalf("captured %d records, want 4: %+v", len(recs), recs)
	}
	miss, hit, fall, meas := recs[0], recs[1], recs[2], recs[3]

	if miss.Flags != 0 {
		t.Errorf("miss flags = %b, want 0", miss.Flags)
	}
	if miss.PredictedNs <= 0 {
		t.Errorf("miss PredictedNs = %d, want > 0 (model ranking ran)", miss.PredictedNs)
	}
	if int(miss.Threads) != missThreads || miss.M != 512 || miss.K != 256 || miss.N != 384 {
		t.Errorf("miss record %+v disagrees with answer %d", miss, missThreads)
	}

	if hit.Flags != trace.FlagCacheHit {
		t.Errorf("hit flags = %b, want FlagCacheHit", hit.Flags)
	}
	if hit.PredictedNs != 0 {
		t.Errorf("hit PredictedNs = %d, want 0 (no ranking ran)", hit.PredictedNs)
	}
	if int(hit.Threads) != hitThreads {
		t.Errorf("hit record threads %d disagrees with answer %d", hit.Threads, hitThreads)
	}

	if fall.Flags != trace.FlagFallback {
		t.Errorf("fallback flags = %b, want FlagFallback", fall.Flags)
	}
	if int(fall.Threads) != fbThreads {
		t.Errorf("fallback record threads %d disagrees with answer %d", fall.Threads, fbThreads)
	}

	if meas.Flags != trace.FlagMeasured || meas.IsDecision() {
		t.Errorf("measurement flags = %b, want FlagMeasured", meas.Flags)
	}
	if meas.MeasuredNs != 4242 || int(meas.Threads) != missThreads {
		t.Errorf("measurement record mangled: %+v", meas)
	}

	// Timestamps are monotone within the capture.
	for i := 1; i < len(recs); i++ {
		if recs[i].TS < recs[i-1].TS {
			t.Errorf("timestamp regression at record %d", i)
		}
	}
}

// TestTraceMatchesLedger pins that the capture and the ledger count the same
// decisions: after /predict and /batch traffic with repeats inside a batch
// and across ops, the capture holds one decision record per prediction
// /stats reports, and one FlagCacheHit record per cache hit — so a replay of
// the capture sees the daemon's own hit rate.
func TestTraceMatchesLedger(t *testing.T) {
	srv, ts := testServer(t)
	rec, collect := openRecorder(t, srv.Engine())
	client := NewClient(ts.URL, nil)

	a := PredictRequest{M: 512, K: 256, N: 384}
	b := PredictRequest{M: 96, K: 64, N: 96, Op: "syrk"}
	c := PredictRequest{M: 96, K: 64, N: 96, Op: "syr2k"}
	if _, err := client.PredictBatch(bg, []PredictRequest{a, b, a, c, b, a}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Predict(bg, a); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(bg)
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Engine; got.Predictions != 7 || got.CacheMisses != 3 {
		t.Fatalf("ledger booked %d predictions with %d misses, want 7 with 3", got.Predictions, got.CacheMisses)
	}
	var decisions, hits int64
	for _, r := range collect() {
		if r.IsDecision() {
			decisions++
		}
		if r.Flags == trace.FlagCacheHit {
			hits++
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("dropped %d", rec.Dropped())
	}
	if decisions != stats.Engine.Predictions || hits != stats.Engine.CacheHits {
		t.Errorf("capture holds %d decisions with %d hits, /stats says %d with %d",
			decisions, hits, stats.Engine.Predictions, stats.Engine.CacheHits)
	}
}

// TestEngineTraceDetached pins that detaching the recorder stops recording
// without disturbing serving.
func TestEngineTraceDetached(t *testing.T) {
	e := NewEngine(lib(t), Options{})
	rec, collect := openRecorder(t, e)

	predict(e, OpGEMM, 512, 256, 384)
	e.SetRecorder(nil)
	if e.Recorder() != nil {
		t.Fatal("Recorder() non-nil after detach")
	}
	predict(e, OpGEMM, 128, 128, 128)
	if got := collect(); len(got) != 1 {
		t.Fatalf("captured %d records after detach, want 1", len(got))
	}
	if rec.Dropped() != 0 {
		t.Fatalf("dropped %d", rec.Dropped())
	}
}
