package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ops"
)

// TestTrainPerOpModels pins the registry-driven training loop: requesting a
// second op gathers its own sweep through the op's cost profile and trains a
// model distinct from GEMM's, and SYRK rankings stop borrowing the GEMM
// model.
func TestTrainPerOpModels(t *testing.T) {
	cfg := DefaultTrainConfig(quickGather(40), "Gadi", 48)
	cfg.Models = DefaultModels(1, true)[:2] // linear + elasticnet: fast
	cfg.Ops = []ops.Op{ops.SYRK}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lib := res.Library
	if !lib.HasModel(ops.GEMM) || !lib.HasModel(ops.SYRK) {
		t.Fatalf("trained ops = %v, want gemm and syrk", lib.TrainedOps())
	}
	if lib.HasModel(ops.SYR2K) {
		t.Error("syr2k model should not exist (falls back to gemm)")
	}
	if lib.ModelFor(ops.SYRK) == lib.ModelFor(ops.GEMM) {
		t.Error("syrk decisions still use the GEMM model object")
	}
	if lib.ModelFor(ops.SYR2K) != lib.ModelFor(ops.GEMM) {
		t.Error("untrained op must fall back to the GEMM model")
	}
	// The SYRK cost profile is roughly half a square GEMM's: the per-op
	// model's runtime estimate at a mid-size square triple must be clearly
	// below the GEMM estimate (not a copy of it).
	const m, k, n = 600, 400, 600
	g := lib.PredictOpSeconds(ops.GEMM, m, k, n, 8)
	s := lib.PredictOpSeconds(ops.SYRK, m, k, n, 8)
	if !(s > 0 && g > 0 && s < g) {
		t.Errorf("predicted seconds gemm=%v syrk=%v, want 0 < syrk < gemm", g, s)
	}
	// Per-op reports carry the op wire name, and both sweeps are exposed.
	for _, op := range []ops.Op{ops.GEMM, ops.SYRK} {
		rows := res.OpReports[op]
		if len(rows) == 0 {
			t.Fatalf("no report rows for %v", op)
		}
		for _, r := range rows {
			if r.Op != op.String() {
				t.Errorf("report row op %q, want %q", r.Op, op)
			}
		}
		if len(res.OpData[op]) != 40 {
			t.Errorf("OpData[%v] has %d shapes, want 40", op, len(res.OpData[op]))
		}
	}
	// SYRK sweeps time canonical (m, k, m) triples.
	for _, st := range res.OpData[ops.SYRK][:5] {
		if st.Shape.N != st.Shape.M {
			t.Fatalf("syrk sweep shape %v not canonical (n != m)", st.Shape)
		}
	}
	// Ranking with the op's own model works end to end.
	if got := lib.OptimalThreadsOp(ops.SYRK, 500, 500, 500); got < 1 || got > 96 {
		t.Errorf("syrk OptimalThreadsOp = %d", got)
	}
}

// TestSaveLoadV2Bundle round-trips a two-op bundle through the v2 artefact
// format and pins that per-op decisions survive.
func TestSaveLoadV2Bundle(t *testing.T) {
	cfg := DefaultTrainConfig(quickGather(40), "Gadi", 48)
	cfg.Models = DefaultModels(1, true)[:1]
	cfg.Ops = []ops.Op{ops.SYRK}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bundle.adsala.json")
	if err := res.Library.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.TrainedOps(), res.Library.TrainedOps(); len(got) != len(want) {
		t.Fatalf("trained ops %v -> %v across save/load", want, got)
	}
	for _, op := range []ops.Op{ops.GEMM, ops.SYRK, ops.SYR2K} {
		for _, sh := range [][3]int{{100, 200, 100}, {512, 512, 512}, {2000, 64, 2000}} {
			a := res.Library.OptimalThreadsOp(op, sh[0], sh[1], sh[2])
			b := back.OptimalThreadsOp(op, sh[0], sh[1], sh[2])
			if a != b {
				t.Errorf("op %v shape %v: decision changed %d -> %d across save/load", op, sh, a, b)
			}
		}
	}
	if back.ModelKind() != res.Library.ModelKind() {
		t.Errorf("primary kind %q -> %q", res.Library.ModelKind(), back.ModelKind())
	}

	// Forward compatibility: an artefact carrying an op this build does not
	// register loads anyway — the unknown entry is skipped and its traffic
	// falls back to the GEMM model, matching the bundle's designed
	// degradation.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	var opsMap map[string]json.RawMessage
	if err := json.Unmarshal(raw["ops"], &opsMap); err != nil {
		t.Fatal(err)
	}
	opsMap["trsm"] = opsMap["syrk"] // pose as a future op's model
	raw["ops"], _ = json.Marshal(opsMap)
	blob, _ = json.Marshal(raw)
	future := filepath.Join(t.TempDir(), "future.adsala.json")
	if err := os.WriteFile(future, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	fwd, err := Load(future)
	if err != nil {
		t.Fatalf("artefact with unknown op entry should load: %v", err)
	}
	if got := fwd.TrainedOps(); len(got) != 2 {
		t.Errorf("forward-compat load trained ops = %v, want the 2 known ops", got)
	}
	if fwd.OptimalThreadsOp(ops.GEMM, 512, 512, 512) != back.OptimalThreadsOp(ops.GEMM, 512, 512, 512) {
		t.Error("forward-compat load changed GEMM decisions")
	}
}

// TestGatherRejectsUnknownOpTimer pins the sweep's input checks: an op the
// registry does not know and a repetition count below 1 are errors, not
// defaults.
func TestGatherRejectsUnknownOpTimer(t *testing.T) {
	g := quickGather(12)
	g.Op = ops.Op(250)
	if _, err := gather(g); err == nil {
		t.Error("gather with an unknown op should error")
	}
	g = quickGather(12)
	g.Iters = 0
	if _, err := gather(g); err == nil {
		t.Error("gather with Iters 0 should error")
	}
}
