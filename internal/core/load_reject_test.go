package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/ops"
)

// jsonObj is a decoded JSON object the corruption cases edit in place.
type jsonObj = map[string]any

// TestLoadRejectsWhatWouldPanicOnFirstMiss crafts one artefact per way a
// decodable file could send the ranking path outside a feature row, a model
// input row or a tree (or make every score NaN), in both format versions,
// and requires Load to refuse it with an error naming the op and the field —
// before the fix each of these loaded and then panicked (or ranked NaNs)
// inside RankOpInto, where the BLAS facade has no recovery. A hot reload
// goes through the same Load, so a refused artefact leaves the old one
// serving.
func TestLoadRejectsWhatWouldPanicOnFirstMiss(t *testing.T) {
	cfg := DefaultTrainConfig(quickGather(40), "Gadi", 48)
	spec, _ := SpecByKind(DefaultModels(1, true), "xgb")
	cfg.Models = []ModelSpec{spec}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := res.Library.Save(good); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	width := len(res.Library.ModelFor(ops.GEMM).Pipeline.Keep)

	// Each case edits the top-level object (file) or the gemm model entry
	// (entry: pipeline, model, columns), which v1 keeps at the top level.
	pipeline := func(entry jsonObj) jsonObj { return entry["pipeline"].(jsonObj) }
	rootNode := func(entry jsonObj) jsonObj {
		trees := entry["model"].(jsonObj)["model"].(jsonObj)["trees"].([]any)
		return trees[0].([]any)[0].(jsonObj)
	}
	cases := []struct {
		name    string
		corrupt func(file, entry jsonObj)
		want    string
	}{
		{"keep index past the 17 Table II columns", func(_, e jsonObj) {
			p := pipeline(e)
			p["input_cols"] = append(p["input_cols"].([]any), "bogus")
			p["yeo_johnson"] = append(p["yeo_johnson"].([]any), jsonObj{"lambda": 1.0})
			sc := p["scaler"].(jsonObj)
			sc["mean"] = append(sc["mean"].([]any), 0.0)
			sc["std"] = append(sc["std"].([]any), 1.0)
			keep := p["keep"].([]any)
			keep[len(keep)-1] = float64(len(features.Columns()))
		}, "input_cols has 18 columns"},
		{"short scaler.std", func(_, e jsonObj) {
			sc := pipeline(e)["scaler"].(jsonObj)
			sc["std"] = sc["std"].([]any)[:3]
		}, "scaler.std has 3 entries"},
		{"zero std on a kept column", func(_, e jsonObj) {
			p := pipeline(e)
			kept := int(p["keep"].([]any)[0].(float64))
			p["scaler"].(jsonObj)["std"].([]any)[kept] = 0.0
		}, "want finite and positive"},
		{"tree feature index past the model input", func(_, e jsonObj) {
			rootNode(e)["f"] = float64(width)
		}, "trees[0][0].f"},
		{"tree child outside its tree", func(_, e jsonObj) {
			rootNode(e)["l"] = 1e6
		}, "trees[0][0] children"},
		{"candidate below one thread", func(f, _ jsonObj) {
			f["candidates"].([]any)[0] = 0.0
		}, "candidates[0] = 0"},
		{"unknown restricted column", func(_, e jsonObj) {
			cols := make([]any, len(features.Columns()))
			for i, c := range features.Columns() {
				cols[i] = c
			}
			cols[2] = "flops"
			e["columns"] = cols
		}, `columns[2] = "flops"`},
	}

	// asV1 rearranges a v2 file into the legacy single-model layout.
	asV1 := func(file jsonObj) (v1, entry jsonObj) {
		entry = file["ops"].(jsonObj)["gemm"].(jsonObj)
		v1 = jsonObj{"format_version": 1.0, "platform": file["platform"], "candidates": file["candidates"]}
		return v1, entry
	}
	for _, version := range []int{1, 2} {
		for _, tc := range cases {
			var file jsonObj
			if err := json.Unmarshal(blob, &file); err != nil {
				t.Fatal(err)
			}
			entry := file["ops"].(jsonObj)["gemm"].(jsonObj)
			out := file
			if version == 1 {
				out, entry = asV1(file)
			}
			tc.corrupt(out, entry)
			if version == 1 {
				for k, v := range entry { // v1 carries the entry's fields at the top level
					out[k] = v
				}
			}
			path := filepath.Join(dir, "bad.json")
			crafted, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, crafted, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = Load(path)
			if err == nil {
				t.Errorf("v%d %s: artefact loaded", version, tc.name)
				continue
			}
			for _, want := range []string{"gemm", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("v%d %s: error %q does not name %q", version, tc.name, err, want)
				}
			}
		}
	}

	// The uncorrupted file passes through the same rearrangement, so a
	// rejection above is the corruption's doing.
	var file jsonObj
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	v1, entry := asV1(file)
	for k, v := range entry {
		v1[k] = v
	}
	crafted, _ := json.Marshal(v1)
	path := filepath.Join(dir, "v1.json")
	if err := os.WriteFile(path, crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("uncorrupted v1 rearrangement: %v", err)
	}
	if a, b := back.OptimalThreadsOp(ops.GEMM, 300, 200, 100), res.Library.OptimalThreadsOp(ops.GEMM, 300, 200, 100); a != b {
		t.Errorf("v1 rearrangement decides %d, trained library %d", a, b)
	}
}
