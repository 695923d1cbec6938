package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ops"
)

// feasibleMaxes spans a one-thread host, the reference box (2), counts
// between candidates (5), the Gadi core count and its full candidate range.
var feasibleMaxes = []int{1, 2, 3, 5, 48, 96}

// TestFeasibleRankIsArgminOfFullScores is the contract of Library.Feasible:
// for seeded shapes of every trained op and every host size, the view scores
// its candidates with the bits the full ranking gives them, and its winner is
// the argmin of the full scores over the kept prefix — what clamping the
// host's choice set, rather than the 16-way argmin, means. One booster (the
// batch path) and one linear model (the per-row loop) stand for the kinds
// TestBatchedRankMatchesPerCandidate walks.
func TestFeasibleRankIsArgminOfFullScores(t *testing.T) {
	specs := DefaultModels(1, true)
	for _, kind := range []string{"xgb", "linear"} {
		spec, _ := SpecByKind(specs, kind)
		full := trainKind(t, spec)
		fullScratch := full.NewScratch()
		fullScores := make([]float64, len(full.Candidates))
		for _, max := range feasibleMaxes {
			view := full.Feasible(max)
			n := len(view.Candidates)
			if !slices.Equal(view.Candidates, full.Candidates[:n]) {
				t.Fatalf("%s max %d: view candidates %v are not a prefix of %v", kind, max, view.Candidates, full.Candidates)
			}
			if n < len(full.Candidates) && full.Candidates[n] <= max {
				t.Fatalf("%s max %d: view %v dropped the runnable candidate %d", kind, max, view.Candidates, full.Candidates[n])
			}
			if !slices.Equal(view.TrainedOps(), full.TrainedOps()) || view.Platform != full.Platform || view.Format() != full.Format() {
				t.Fatalf("%s max %d: view is not the same artefact: ops %v, platform %q, format %d", kind, max, view.TrainedOps(), view.Platform, view.Format())
			}
			s := view.NewScratch()
			scores := make([]float64, n)
			rng := rand.New(rand.NewSource(int64(max)))
			for _, op := range full.TrainedOps() {
				for i := 0; i < 200; i++ {
					lo, span := 1, 4096
					if i%2 == 1 {
						lo, span = 4, 61 // the benchmark's small domain, where the models tie
					}
					m, k, nn := lo+rng.Intn(span), lo+rng.Intn(span), lo+rng.Intn(span)
					full.RankOpInto(op, m, k, nn, fullScratch, fullScores)
					got := view.RankOpInto(op, m, k, nn, s, scores)
					for c := range scores {
						if math.Float64bits(scores[c]) != math.Float64bits(fullScores[c]) {
							t.Fatalf("%s max %d %v %dx%dx%d @%d threads: view score %x, full score %x",
								kind, max, op, m, k, nn, view.Candidates[c], math.Float64bits(scores[c]), math.Float64bits(fullScores[c]))
						}
					}
					want := 0
					for c, v := range fullScores[:n] {
						if v < fullScores[want] {
							want = c
						}
					}
					// The rank compares predictions in target space; two of
					// them may untransform to one score, and then either
					// index is the argmin.
					if got != want && scores[got] != fullScores[want] {
						t.Fatalf("%s max %d %v %dx%dx%d: view picks %d threads, argmin of the full scores over %v is %d",
							kind, max, op, m, k, nn, view.Candidates[got], view.Candidates, full.Candidates[want])
					}
					if without := view.RankOpInto(op, m, k, nn, s, nil); without != got {
						t.Fatalf("%s max %d %v %dx%dx%d: argmin without scores %d, with %d", kind, max, op, m, k, nn, without, got)
					}
				}
			}
		}
	}
}

// TestFeasibleIdentityAndFloor pins the two edges: a host that can run every
// candidate gets the receiver itself (so its decisions, scores and the
// golden fixture cannot move), and a host below every candidate still gets
// one to name — the smallest.
func TestFeasibleIdentityAndFloor(t *testing.T) {
	lib := quickTrain(t, 40).Library
	top := lib.Candidates[len(lib.Candidates)-1]
	for _, max := range []int{top, top + 1, 1 << 20} {
		if lib.Feasible(max) != lib {
			t.Errorf("Feasible(%d) built a new library though no candidate of %v is cut", max, lib.Candidates)
		}
	}
	if view := lib.Feasible(top - 1); view == lib || len(view.Candidates) != len(lib.Candidates)-1 {
		t.Errorf("Feasible(%d) = %v, want %v without its last", top-1, view.Candidates, lib.Candidates)
	}

	high := withCandidates(t, lib, []int{24, 8, 96})
	view := high.Feasible(2)
	if !slices.Equal(view.Candidates, []int{8}) {
		t.Fatalf("Feasible(2) of %v ranks %v, want the smallest candidate alone", high.Candidates, view.Candidates)
	}
	if got := view.OptimalThreadsOp(ops.GEMM, 512, 512, 512); got != 8 {
		t.Errorf("one-candidate view picks %d", got)
	}
	if one := withCandidates(t, lib, []int{8}); one.Feasible(2) != one {
		t.Error("Feasible(2) of a one-candidate artefact rebuilt it though nothing was cut")
	}
	if !slices.Equal(high.Candidates, []int{24, 8, 96}) || !slices.Equal(lib.Candidates, DefaultCandidates(96)) {
		t.Errorf("Feasible changed its receiver: %v / %v", high.Candidates, lib.Candidates)
	}
}
