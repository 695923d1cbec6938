package replay

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/simtime"
	"repro/internal/trace"
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

// capture drives a recorder-attached engine over the given shapes and
// returns the trace files. legacyWarm > 0 prepends that many decision
// records carrying trace.FlagWarmup, as captures of daemons that still had a
// cache warm-up pass do. flushEvery > 0 flushes the recorder after every
// flushEvery shapes, so the capture spans several blocks.
func capture(t *testing.T, l *core.Library, shapes []sampling.Shape, legacyWarm int, flushEvery int) []string {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{})
	if err != nil {
		t.Fatalf("trace.Open: %v", err)
	}
	eng := serve.NewEngine(l, serve.Options{})
	eng.SetRecorder(rec)
	for i := 0; i < legacyWarm; i++ {
		rec.Record(trace.Record{M: int32(100 + i), K: 100, N: 100, Threads: 1, Op: serve.OpGEMM, Flags: trace.FlagWarmup})
	}
	for i, sh := range shapes {
		if flushEvery > 0 && i > 0 && i%flushEvery == 0 {
			rec.Flush()
		}
		threads, _ := eng.PredictOpCtx(context.Background(), serve.OpGEMM, sh.M, sh.K, sh.N)
		// Synthesise a measurement at the model's own estimate so the
		// labelled-data path has plausible pred/measured pairs.
		ns := int64(l.PredictOpSeconds(serve.OpGEMM, sh.M, sh.K, sh.N, threads) * 1e9)
		if ns <= 0 {
			ns = 1
		}
		eng.RecordMeasured(serve.OpGEMM, sh.M, sh.K, sh.N, threads, ns)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	files, err := trace.Files(prefix)
	if err != nil || len(files) == 0 {
		t.Fatalf("trace.Files: %v, %v", files, err)
	}
	return files
}

// testShapes returns n deterministic shapes with some repeats, like real
// serving traffic.
func testShapes(n int) []sampling.Shape {
	sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 11)
	if err != nil {
		panic(err)
	}
	base := sampler.Sample((n + 2) / 3)
	out := make([]sampling.Shape, 0, n)
	for len(out) < n {
		out = append(out, base[len(out)%len(base)])
	}
	return out
}

// TestReplayDeterministicAgreement pins the acceptance criterion: replaying
// a trace against the artefact that recorded it reproduces every recorded
// thread-count decision.
func TestReplayDeterministicAgreement(t *testing.T) {
	l := lib(t)
	files := capture(t, l, testShapes(60), 0, 0)
	rep, err := Run(l, files, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Decisions != 60 {
		t.Fatalf("Decisions = %d, want 60", rep.Decisions)
	}
	if rep.Agreement != 1.0 {
		t.Fatalf("Agreement = %v, want exactly 1.0 (agreed %d/%d)", rep.Agreement, rep.Agreed, rep.Decisions)
	}
	if rep.Measured != 60 {
		t.Fatalf("Measured = %d, want 60", rep.Measured)
	}
	// Traffic repeats shapes, so the simulated cache must be hitting.
	if rep.CacheHitRate <= 0 {
		t.Fatalf("CacheHitRate = %v, want > 0 on repeated shapes", rep.CacheHitRate)
	}
	op, ok := rep.PerOp["gemm"]
	if !ok {
		t.Fatalf("PerOp lacks gemm: %+v", rep.PerOp)
	}
	if op.Agreement != 1.0 || op.Decisions != 60 {
		t.Fatalf("gemm op report: %+v", op)
	}
	// Measurements were synthesised at the model's own estimates, so the
	// residual must be ~0 and the regret exactly 0 (the recorded choice is
	// the candidate's own argmin).
	if r := op.ResidualLog2; r.Count != 60 || r.Mean > 0.01 || r.Mean < -0.01 {
		t.Fatalf("ResidualLog2 = %+v, want mean ~0", r)
	}
	if reg := op.PredictedRegretSeconds; reg.Count != 60 || reg.Max > 1e-12 {
		t.Fatalf("PredictedRegretSeconds = %+v, want all-zero", reg)
	}
	if op.MeasuredLatency.Count != 60 || op.MeasuredLatency.P99 <= 0 {
		t.Fatalf("MeasuredLatency = %+v", op.MeasuredLatency)
	}
}

// TestReplayFiltersWarmup pins the legacy-capture contract: records flagged
// as warm-up traffic by an earlier daemon are skipped, counted, and never
// scored.
func TestReplayFiltersWarmup(t *testing.T) {
	l := lib(t)
	files := capture(t, l, testShapes(30), 16, 0)

	rep, err := Run(l, files, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.WarmupSkipped != 16 {
		t.Fatalf("WarmupSkipped = %d, want the 16 flagged records", rep.WarmupSkipped)
	}
	if rep.Decisions != 30 || rep.Agreement != 1.0 {
		t.Fatalf("Decisions = %d at agreement %v, want the 30 serving decisions only, all agreeing", rep.Decisions, rep.Agreement)
	}
}

// TestReplaySurfacesCorruption pins that a damaged trace still replays and
// the report carries the reader's recovery accounting.
func TestReplaySurfacesCorruption(t *testing.T) {
	l := lib(t)
	// Small blocks so truncating the file tail severs only the last block.
	files := capture(t, l, testShapes(40), 0, 4)
	truncateFile(t, files[len(files)-1], 10)

	rep, err := Run(l, files, Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.DroppedBytes == 0 || len(rep.Corrupt) == 0 {
		t.Fatalf("corruption not surfaced: %+v", rep)
	}
	if rep.Decisions == 0 {
		t.Fatal("no records recovered from the valid prefix")
	}
	if rep.Agreement != 1.0 {
		t.Fatalf("recovered-prefix agreement = %v, want 1.0", rep.Agreement)
	}
}

// truncateFile cuts n bytes off the end of a file.
func truncateFile(t *testing.T, path string, n int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-n); err != nil {
		t.Fatal(err)
	}
}

// TestReplayNoFiles pins the error contract.
func TestReplayNoFiles(t *testing.T) {
	if _, err := Run(lib(t), nil, Config{}); err == nil {
		t.Fatal("Run with no files should error")
	}
}
