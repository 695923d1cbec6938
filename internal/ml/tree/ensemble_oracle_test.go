package tree_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/tree"
)

// TestForestMatchesIndexSort replays every tree of a Random Forest (the
// same bootstrap draw as RandomForest.Fit, the tree's own parameters) on the
// index-sort oracle: bootstrap duplicates and feature subsampling must not
// move a bit.
func TestForestMatchesIndexSort(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		X, y := tree.TieData(90+int(seed)*31, 5, 3+int(seed), seed)
		f := ensemble.NewRandomForest(ensemble.ForestParams{NTrees: 12, Seed: seed})
		if err := f.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		n := len(y)
		for ti, tr := range f.Trees {
			rng := rand.New(rand.NewSource(seed + int64(ti)*7919))
			bx := make([][]float64, n)
			by := make([]float64, n)
			w := make([]float64, n)
			for i := range bx {
				j := rng.Intn(n)
				bx[i], by[i], w[i] = X[j], y[j], 1
			}
			if d := tree.DiffTrees(tr.Root, tree.FitIndexSort(tr.Params, bx, by, w), "root"); d != "" {
				t.Fatalf("seed %d tree %d: %s", seed, ti, d)
			}
		}
	}
}

// TestAdaBoostMatchesIndexSort replays AdaBoost.R2's rounds on the
// index-sort oracle: each round's weighted tree must match bit for bit, and
// so must the β that reweights the next round.
func TestAdaBoostMatchesIndexSort(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		X, y := tree.TieData(80+int(seed)*37, 4, 2+int(seed), seed)
		a := ensemble.NewAdaBoostR2(ensemble.AdaParams{NEstimators: 15, MaxDepth: 4, Seed: seed})
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		n := len(y)
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
		for r, tr := range a.Trees {
			if d := tree.DiffTrees(tr.Root, tree.FitIndexSort(tr.Params, X, y, w), "root"); d != "" {
				t.Fatalf("seed %d round %d: %s", seed, r, d)
			}
			// AdaBoostR2.Fit's reweighting (linear loss, learning rate 1).
			pred := ml.PredictBatch(tr, X)
			var maxErr, avgLoss, sum float64
			for i := range y {
				maxErr = math.Max(maxErr, math.Abs(pred[i]-y[i]))
			}
			if maxErr == 0 {
				break
			}
			loss := make([]float64, n)
			for i := range y {
				loss[i] = math.Abs(pred[i]-y[i]) / maxErr
				avgLoss += loss[i] * w[i]
			}
			if avgLoss >= 0.5 {
				break
			}
			beta := avgLoss / (1 - avgLoss)
			if math.Float64bits(beta) != math.Float64bits(a.Betas[r]) {
				t.Fatalf("seed %d round %d: β %v, fitted %v", seed, r, beta, a.Betas[r])
			}
			for i := range w {
				w[i] *= math.Pow(beta, 1-loss[i])
				sum += w[i]
			}
			for i := range w {
				w[i] /= sum
			}
		}
		if len(a.Trees) < 3 {
			t.Errorf("seed %d: only %d rounds replayed", seed, len(a.Trees))
		}
	}
}
