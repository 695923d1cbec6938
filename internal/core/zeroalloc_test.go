package core

import (
	"testing"

	"repro/internal/ops"
)

// TestRankOpIntoZeroAlloc pins the //adsala:zeroalloc contract on the
// ranking hot path: with a caller-owned Scratch and scores slice, a full
// candidate ranking allocates nothing (every model kind and candidate-set
// length is pinned in TestBatchedRankMatchesPerCandidate).
func TestRankOpIntoZeroAlloc(t *testing.T) {
	res := quickTrain(t, 40)
	lib := res.Library
	s := lib.NewScratch()
	scores := make([]float64, len(lib.Candidates))
	if n := testing.AllocsPerRun(200, func() {
		lib.RankOpInto(ops.GEMM, 512, 256, 384, s, scores)
	}); n != 0 {
		t.Errorf("RankOpInto allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		lib.RankOpInto(ops.GEMM, 512, 256, 384, s, nil)
	}); n != 0 {
		t.Errorf("RankOpInto without scores allocates %.1f/op, want 0", n)
	}
	// The feasible views rank through the same path on their own plans and
	// scratches: the benchmark's core.rank_allocs row is measured on one.
	for _, max := range feasibleMaxes {
		view := lib.Feasible(max)
		vs := view.NewScratch()
		if n := testing.AllocsPerRun(200, func() {
			view.RankOpInto(ops.GEMM, 512, 256, 384, vs, scores[:len(view.Candidates)])
		}); n != 0 {
			t.Errorf("Feasible(%d).RankOpInto allocates %.1f/op, want 0", max, n)
		}
	}
}

// TestPredictOpSecondsIntoZeroAlloc pins the single-configuration scoring
// path (the drift monitor's per-measurement predicted label): it must
// agree exactly with the allocating PredictOpSeconds and allocate nothing.
func TestPredictOpSecondsIntoZeroAlloc(t *testing.T) {
	res := quickTrain(t, 40)
	lib := res.Library
	s := lib.NewScratch()
	want := lib.PredictOpSeconds(ops.GEMM, 512, 256, 384, 8)
	if got := lib.PredictOpSecondsInto(ops.GEMM, 512, 256, 384, 8, s); got != want {
		t.Fatalf("PredictOpSecondsInto = %v, PredictOpSeconds = %v — must agree exactly", got, want)
	}
	if n := testing.AllocsPerRun(200, func() {
		lib.PredictOpSecondsInto(ops.GEMM, 512, 256, 384, 8, s)
	}); n != 0 {
		t.Errorf("PredictOpSecondsInto allocates %.1f/op, want 0", n)
	}
}
