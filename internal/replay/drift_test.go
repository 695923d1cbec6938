package replay

import (
	"context"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestDriftOnlineReplayAgreement pins the tentpole acceptance criterion:
// the online drift monitor (fed live through the engine's measured path)
// and adsala-replay's offline DriftRun (fed from the capture of the same
// stream) must report the same residual statistics. Both see the same
// measured values, and the engine's hot path and DriftRun truncate
// predictions identically, so the windowed aggregates agree to float
// round-off across the two clocks.
func TestDriftOnlineReplayAgreement(t *testing.T) {
	l := lib(t)
	cfg := drift.Config{Window: time.Minute, Slots: 8, Threshold: 1.0, MinSamples: 8}

	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatalf("trace.Open: %v", err)
	}
	eng := serve.NewEngine(l, serve.Options{})
	eng.SetRecorder(rec)
	mon := drift.NewMonitor(cfg)
	eng.SetDriftMonitor(mon)

	// Perturb the synthesised measurements around the model's estimate by
	// alternating ±sqrt(2): the residual_log2 population is {+0.5, -0.5}, a
	// nonzero spread with ~zero mean — below threshold, so no drift trips.
	shapes := testShapes(60)
	for i, sh := range shapes {
		threads, _ := eng.PredictOpCtx(context.Background(), serve.OpGEMM, sh.M, sh.K, sh.N)
		pred := l.PredictOpSeconds(serve.OpGEMM, sh.M, sh.K, sh.N, threads)
		factor := math.Sqrt2
		if i%2 == 1 {
			factor = 1 / math.Sqrt2
		}
		ns := int64(pred * factor * 1e9)
		if ns <= 0 {
			ns = 1
		}
		eng.RecordMeasured(serve.OpGEMM, sh.M, sh.K, sh.N, threads, ns)
	}
	online := mon.Snapshot()
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	files, err := trace.Files(prefix)
	if err != nil || len(files) == 0 {
		t.Fatalf("trace.Files: %v, %v", files, err)
	}

	offline, err := DriftRun(l, files, cfg)
	if err != nil {
		t.Fatalf("DriftRun: %v", err)
	}
	if offline.Schema != drift.Schema || online.Schema != drift.Schema {
		t.Fatalf("schemas %q / %q, want %q", online.Schema, offline.Schema, drift.Schema)
	}
	if online.Observed != 60 || offline.Observed != 60 {
		t.Fatalf("observed online=%d offline=%d, want 60", online.Observed, offline.Observed)
	}
	if online.Degraded || offline.Degraded {
		t.Fatalf("zero-mean perturbation tripped drift: online=%v offline=%v",
			online.DriftingOps, offline.DriftingOps)
	}

	on, ok := online.PerOp["gemm"]
	if !ok {
		t.Fatalf("online per_op lacks gemm: %+v", online.PerOp)
	}
	off, ok := offline.PerOp["gemm"]
	if !ok {
		t.Fatalf("offline per_op lacks gemm: %+v", offline.PerOp)
	}

	agree := func(name string, a, b obs.Summary) {
		t.Helper()
		if a.Count != b.Count {
			t.Errorf("%s count online=%d offline=%d", name, a.Count, b.Count)
		}
		for _, v := range []struct {
			field  string
			av, bv float64
		}{
			{"mean", a.Mean, b.Mean},
			{"std", a.Std, b.Std},
			{"min", a.Min, b.Min},
			{"max", a.Max, b.Max},
		} {
			if math.Abs(v.av-v.bv) > 1e-9 {
				t.Errorf("%s %s online=%.12f offline=%.12f", name, v.field, v.av, v.bv)
			}
		}
	}
	agree("residual_log2", on.ResidualLog2, off.ResidualLog2)
	agree("abs_rel_err", on.AbsRelErr, off.AbsRelErr)

	// The perturbation is visible in the spread: std ~0.5 in log2 units.
	if on.ResidualLog2.Count != 60 {
		t.Fatalf("residual count %d, want 60", on.ResidualLog2.Count)
	}
	if s := on.ResidualLog2.Std; s < 0.45 || s > 0.55 {
		t.Errorf("residual std %.4f, want ~0.5", s)
	}

	// Cumulative latency tails see the identical measured values.
	if on.MeasuredLatency.Count != off.MeasuredLatency.Count ||
		math.Abs(on.MeasuredLatency.P99-off.MeasuredLatency.P99) > 1e-12 {
		t.Errorf("measured latency tails diverge: online=%+v offline=%+v",
			on.MeasuredLatency, off.MeasuredLatency)
	}
}

// TestDriftRunDetectsInjectedDrift pins the offline threshold-tuning use:
// a capture whose measurements run 4x slower than the model's estimate
// must trip the detector.
func TestDriftRunDetectsInjectedDrift(t *testing.T) {
	l := lib(t)
	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{FlushInterval: time.Hour})
	if err != nil {
		t.Fatalf("trace.Open: %v", err)
	}
	eng := serve.NewEngine(l, serve.Options{})
	eng.SetRecorder(rec)
	for _, sh := range testShapes(30) {
		threads, _ := eng.PredictOpCtx(context.Background(), serve.OpGEMM, sh.M, sh.K, sh.N)
		ns := int64(l.PredictOpSeconds(serve.OpGEMM, sh.M, sh.K, sh.N, threads) * 4e9)
		if ns <= 0 {
			ns = 4
		}
		eng.RecordMeasured(serve.OpGEMM, sh.M, sh.K, sh.N, threads, ns)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	files, err := trace.Files(prefix)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := DriftRun(l, files, drift.Config{Threshold: 1.0, MinSamples: 8})
	if err != nil {
		t.Fatalf("DriftRun: %v", err)
	}
	if !rep.Degraded || len(rep.DriftingOps) != 1 || rep.DriftingOps[0] != "gemm" {
		t.Fatalf("4x-slow capture not flagged: degraded=%v ops=%v", rep.Degraded, rep.DriftingOps)
	}
	// residual_log2 = log2(pred/meas) = -2 for every record.
	if m := rep.PerOp["gemm"].ResidualLog2.Mean; math.Abs(m+2) > 0.01 {
		t.Fatalf("residual mean %.4f, want -2", m)
	}

	if _, err := DriftRun(l, nil, drift.Config{}); err == nil {
		t.Fatal("DriftRun with no files should error")
	}
}
