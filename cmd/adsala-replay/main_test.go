package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	adsala "repro"
	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/trace"
)

var (
	fixOnce sync.Once
	fixLib  string // saved artefact path
	fixTr   string // trace capture prefix
	fixN    int    // serving decisions recorded
	fixErr  error
)

// fixture trains one quick library, saves it, and captures a trace of
// traffic served by it (behind eight records flagged the way earlier daemons
// flagged their cache warm-up, so the filter path is exercised).
func fixture(t *testing.T) (libPath, tracePrefix string, decisions int) {
	t.Helper()
	fixOnce.Do(func() {
		// Not t.TempDir(): the fixture must outlive the first test that
		// happens to build it.
		dir, err := os.MkdirTemp("", "adsala-replay-test")
		if err != nil {
			fixErr = err
			return
		}
		lib, _, err := adsala.Train(adsala.TrainOptions{Platform: "Gadi", Shapes: 80, Quick: true, Seed: 3})
		if err != nil {
			fixErr = err
			return
		}
		fixLib = filepath.Join(dir, "lib.json")
		if fixErr = lib.Save(fixLib); fixErr != nil {
			return
		}

		clib, err := core.Load(fixLib)
		if err != nil {
			fixErr = err
			return
		}
		fixTr = filepath.Join(dir, "cap")
		rec, err := trace.Open(fixTr, trace.Options{})
		if err != nil {
			fixErr = err
			return
		}
		eng := serve.NewEngine(clib, serve.Options{})
		eng.SetRecorder(rec)
		for i := 0; i < 8; i++ {
			rec.Record(trace.Record{M: int32(100 + i), K: 100, N: 100, Threads: 1, Op: serve.OpGEMM, Flags: trace.FlagWarmup})
		}
		sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), 17)
		if err != nil {
			fixErr = err
			return
		}
		shapes := sampler.Sample(25)
		for _, sh := range shapes {
			eng.PredictOpCtx(context.Background(), serve.OpGEMM, sh.M, sh.K, sh.N)
			eng.PredictOpCtx(context.Background(), serve.OpGEMM, sh.M, sh.K, sh.N) // repeat: cache hits
		}
		fixN = 2 * len(shapes)
		// Measurement records at 2x the model's estimate: residual_log2 is
		// exactly -1 per record, which the -drift tests trip on. Thread counts
		// come straight from the library so no extra decisions are recorded.
		for _, sh := range shapes {
			threads := clib.OptimalThreadsOp(adsala.OpGEMM, sh.M, sh.K, sh.N)
			ns := int64(clib.PredictOpSeconds(serve.OpGEMM, sh.M, sh.K, sh.N, threads) * 2e9)
			if ns <= 0 {
				ns = 2
			}
			eng.RecordMeasured(serve.OpGEMM, sh.M, sh.K, sh.N, threads, ns)
		}
		fixErr = rec.Close()
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixLib, fixTr, fixN
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-trace", "cap", "-lib", "x.json", "-json", "-min-agreement", "0.9"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.tracePath != "cap" || cfg.libPath != "x.json" || !cfg.jsonOut || cfg.minAgreement != 0.9 {
		t.Errorf("parsed %+v", cfg)
	}
	if _, err := parseFlags([]string{"-lib", "x.json"}, io.Discard); err == nil {
		t.Error("missing -trace should error")
	}
	if _, err := parseFlags([]string{"-trace", "cap"}, io.Discard); err == nil {
		t.Error("missing -lib should error")
	}
	if _, err := parseFlags([]string{"-trace", "cap", "-lib", "x", "-min-agreement", "1.5"}, io.Discard); err == nil {
		t.Error("-min-agreement > 1 should error")
	}
	// -include-warmup is gone: a command line that still carries it fails
	// loudly, naming it.
	if _, err := parseFlags([]string{"-trace", "cap", "-lib", "x", "-include-warmup"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-include-warmup") {
		t.Errorf("parseFlags(-include-warmup) = %v, want an error naming the flag", err)
	}

	cfg, err = parseFlags([]string{"-trace", "cap", "-lib", "x.json", "-drift",
		"-drift-window", "30s", "-drift-threshold", "0.5", "-drift-min-samples", "8"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.driftMode || cfg.driftWindow != 30*time.Second || cfg.driftThreshold != 0.5 || cfg.driftMinSamples != 8 {
		t.Errorf("drift flags parsed %+v", cfg)
	}
}

// TestReplayDriftMode pins the -drift offline detector: the fixture's
// measurement records run 2x slower than the model's estimate, so a 0.5
// threshold must trip on gemm — in the JSON document and the text render.
func TestReplayDriftMode(t *testing.T) {
	libPath, prefix, _ := fixture(t)
	var buf bytes.Buffer
	err := run([]string{"-trace", prefix, "-lib", libPath, "-json",
		"-drift", "-drift-threshold", "0.5", "-drift-min-samples", "8"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var doc output
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Drift == nil {
		t.Fatal("no drift report in -drift output")
	}
	if doc.Drift.Schema != "adsala/drift/v1" {
		t.Errorf("drift schema = %q", doc.Drift.Schema)
	}
	if !doc.Drift.Degraded || len(doc.Drift.DriftingOps) != 1 || doc.Drift.DriftingOps[0] != "gemm" {
		t.Fatalf("2x-slow capture not flagged: degraded=%v ops=%v",
			doc.Drift.Degraded, doc.Drift.DriftingOps)
	}
	if m := doc.Drift.PerOp["gemm"].ResidualLog2.Mean; m > -0.9 || m < -1.1 {
		t.Errorf("residual mean %.4f, want ~-1 (2x-slow measurements)", m)
	}

	// Without -drift the report is absent.
	buf.Reset()
	if err := run([]string{"-trace", prefix, "-lib", libPath, "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var plain output
	if err := json.Unmarshal(buf.Bytes(), &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Drift != nil {
		t.Error("drift report present without -drift")
	}

	// Text mode renders the drift section with the tripped markers.
	buf.Reset()
	if err := run([]string{"-trace", prefix, "-lib", libPath,
		"-drift", "-drift-threshold", "0.5", "-drift-min-samples", "8"}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "drift (window") || !strings.Contains(text, "DEGRADED") || !strings.Contains(text, "DRIFTING") {
		t.Fatalf("text drift render lacks markers:\n%s", text)
	}
}

// TestReplaySelfAgreement pins the CLI end to end: replaying the capture
// against the artefact that recorded it reports exact agreement, valid
// JSON, and passes its own -min-agreement gate.
func TestReplaySelfAgreement(t *testing.T) {
	libPath, prefix, n := fixture(t)
	var buf bytes.Buffer
	err := run([]string{"-trace", prefix, "-lib", libPath, "-json", "-min-agreement", "1"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var doc output
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Schema != "adsala/replay/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	rep := doc.Candidate
	if rep == nil {
		t.Fatal("no candidate report")
	}
	if rep.Decisions != int64(n) {
		t.Errorf("Decisions = %d, want %d", rep.Decisions, n)
	}
	if rep.Agreement != 1.0 {
		t.Errorf("Agreement = %v, want 1.0", rep.Agreement)
	}
	if rep.WarmupSkipped != 8 {
		t.Errorf("WarmupSkipped = %d, want the 8 flagged records", rep.WarmupSkipped)
	}
	if rep.CacheHitRate <= 0 {
		t.Errorf("CacheHitRate = %v, want > 0 (traffic repeats shapes)", rep.CacheHitRate)
	}
}

// TestReplayBaselineDiff pins the artefact-diff workflow: candidate and
// baseline reports plus deltas (zero when both are the same artefact).
func TestReplayBaselineDiff(t *testing.T) {
	libPath, prefix, _ := fixture(t)
	var buf bytes.Buffer
	err := run([]string{"-trace", prefix, "-lib", libPath, "-baseline", libPath, "-json"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var doc output
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Baseline == nil || doc.Diff == nil {
		t.Fatal("baseline/diff missing")
	}
	if doc.Diff.Agreement != 0 || doc.Diff.CacheHitRate != 0 {
		t.Errorf("self-diff non-zero: %+v", doc.Diff)
	}
}

// TestReplayMinAgreementGate pins the self-asserting CI mode: an impossible
// threshold fails the run.
func TestReplayMinAgreementGate(t *testing.T) {
	libPath, prefix, _ := fixture(t)

	// Against the recording artefact agreement is exactly 1.0, so the gate
	// can only fail on a trace with no replayable decisions: an empty
	// capture reports agreement 0.
	dir := t.TempDir()
	empty := filepath.Join(dir, "cap")
	rec, err := trace.Open(empty, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = run([]string{"-trace", empty, "-lib", libPath, "-min-agreement", "0.5"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "below -min-agreement") {
		t.Fatalf("empty-trace gate: err = %v", err)
	}

	// And the text (non-JSON) path renders without error on a real capture.
	buf.Reset()
	if err := run([]string{"-trace", prefix, "-lib", libPath}, &buf); err != nil {
		t.Fatalf("text run: %v", err)
	}
	if !strings.Contains(buf.String(), "agreement") {
		t.Fatalf("text output lacks agreement line:\n%s", buf.String())
	}
}

// TestReplayMissingInputs pins the error paths.
func TestReplayMissingInputs(t *testing.T) {
	libPath, prefix, _ := fixture(t)
	if err := run([]string{"-trace", filepath.Join(t.TempDir(), "nope"), "-lib", libPath}, io.Discard); err == nil {
		t.Error("missing trace should error")
	}
	if err := run([]string{"-trace", prefix, "-lib", filepath.Join(t.TempDir(), "nope.json")}, io.Discard); err == nil {
		t.Error("missing library should error")
	}
}
