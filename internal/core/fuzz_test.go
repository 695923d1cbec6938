package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ops"
)

// FuzzLoad feeds arbitrary bytes to Load as an artefact file, the install's
// output and the daemon's reload input. Load must never panic, and an
// artefact it accepts must rank: NewScratch, RankOpInto for every op at
// 1×1×1 and at a mid shape, on the library and on its one-thread Feasible
// view, must not panic either (nothing on the ranking path recovers). The
// seed corpus, testdata/fuzz/FuzzLoad, holds a minimal valid v1 and v2
// artefact and, in both versions, the corruptions of
// TestLoadRejectsWhatWouldPanicOnFirstMiss.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.adsala.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		lib, err := Load(path)
		if err != nil {
			return
		}
		for _, l := range []*Library{lib, lib.Feasible(1)} {
			s := l.NewScratch()
			scores := make([]float64, len(l.Candidates))
			for _, op := range ops.All() {
				for _, shape := range [][3]int{{1, 1, 1}, {300, 200, 100}} {
					l.RankOpInto(op, shape[0], shape[1], shape[2], s, scores)
				}
			}
		}
	})
}
