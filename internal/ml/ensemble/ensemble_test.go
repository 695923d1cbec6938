package ensemble

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

// friedman is the classic nonlinear regression benchmark surface.
func friedman(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, 5)
		for j := range x {
			x[j] = rng.Float64()
		}
		X[i] = x
		y[i] = 10*math.Sin(math.Pi*x[0]*x[1]) + 20*(x[2]-0.5)*(x[2]-0.5) +
			10*x[3] + 5*x[4] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestForestBeatsSingleTree(t *testing.T) {
	X, y := friedman(400, 0.5, 1)
	Xt, yt := friedman(200, 0.5, 2)

	single := tree.NewRegressor(tree.Params{MaxDepth: 6})
	if err := single.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest(ForestParams{NTrees: 60, Seed: 1})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	sRMSE := ml.RMSE(ml.PredictBatch(single, Xt), yt)
	fRMSE := ml.RMSE(ml.PredictBatch(forest, Xt), yt)
	if fRMSE >= sRMSE {
		t.Errorf("forest RMSE %v not better than single tree %v", fRMSE, sRMSE)
	}
	if forest.Name() != "Random Forest" {
		t.Errorf("Name = %q", forest.Name())
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	X, y := friedman(150, 0.3, 3)
	a := NewRandomForest(ForestParams{NTrees: 10, Seed: 42})
	b := NewRandomForest(ForestParams{NTrees: 10, Seed: 42})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.1, 0.9, 0.5, 0.3, 0.7}
	if a.Predict(probe) != b.Predict(probe) {
		t.Error("same-seed forests disagree (parallel fit nondeterminism?)")
	}
}

func TestForestRejectsBadInput(t *testing.T) {
	f := NewRandomForest(ForestParams{NTrees: 2})
	if err := f.Fit(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
}

func TestAdaBoostImprovesOverStump(t *testing.T) {
	X, y := friedman(400, 0.3, 4)
	Xt, yt := friedman(200, 0.3, 5)

	stump := tree.NewRegressor(tree.Params{MaxDepth: 4})
	if err := stump.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ada := NewAdaBoostR2(AdaParams{NEstimators: 40, MaxDepth: 4, Seed: 1})
	if err := ada.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(ada.Trees) < 5 {
		t.Fatalf("only %d boosting rounds survived", len(ada.Trees))
	}
	sRMSE := ml.RMSE(ml.PredictBatch(stump, Xt), yt)
	aRMSE := ml.RMSE(ml.PredictBatch(ada, Xt), yt)
	if aRMSE >= sRMSE {
		t.Errorf("AdaBoost RMSE %v not better than single depth-4 tree %v", aRMSE, sRMSE)
	}
	if ada.Name() != "AdaBoost" {
		t.Errorf("Name = %q", ada.Name())
	}
}

func TestAdaBoostPerfectFitStops(t *testing.T) {
	// Piecewise-constant target learnable exactly: boosting should stop
	// early (maxErr == 0 branch).
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{1, 1, 5, 5}
	ada := NewAdaBoostR2(AdaParams{NEstimators: 50, MaxDepth: 3})
	if err := ada.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(ada.Trees) > 2 {
		t.Errorf("perfect-fit boosting ran %d rounds", len(ada.Trees))
	}
	if got := ada.Predict([]float64{1.5}); math.Abs(got-1) > 1e-9 {
		t.Errorf("Predict = %v", got)
	}
}

func TestAdaBoostWeightedMedianRobustness(t *testing.T) {
	X, y := friedman(200, 0.2, 6)
	ada := NewAdaBoostR2(AdaParams{NEstimators: 20, MaxDepth: 4, Seed: 2})
	if err := ada.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Median combination keeps predictions within the envelope of stage
	// predictions.
	probe := X[0]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, tr := range ada.Trees {
		p := tr.Predict(probe)
		lo, hi = math.Min(lo, p), math.Max(hi, p)
	}
	if got := ada.Predict(probe); got < lo || got > hi {
		t.Errorf("median prediction %v outside stage envelope [%v, %v]", got, lo, hi)
	}
}

func TestEnsemblePersistence(t *testing.T) {
	X, y := friedman(150, 0.3, 7)
	forest := NewRandomForest(ForestParams{NTrees: 8, Seed: 3})
	if err := forest.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	ada := NewAdaBoostR2(AdaParams{NEstimators: 8, Seed: 3})
	if err := ada.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for kind, model := range map[string]ml.Regressor{"forest": forest, "adaboost": ada} {
		blob, err := ml.Marshal(kind, model)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		back, err := ml.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if back.Predict(X[0]) != model.Predict(X[0]) {
			t.Errorf("%s restored model disagrees", kind)
		}
	}
}

// TestCheckWidth: fitted ensembles pass at their own width; an empty
// ensemble, a nil or out-of-range member tree, or AdaBoost weights that do
// not pair with the trees are refused.
func TestCheckWidth(t *testing.T) {
	X, y := friedman(120, 0.3, 5)
	forest := NewRandomForest(ForestParams{NTrees: 4, Seed: 1})
	ada := NewAdaBoostR2(AdaParams{NEstimators: 4, Seed: 1})
	for _, m := range []ml.Regressor{forest, ada} {
		if err := m.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := ml.CheckWidth(m, len(X[0])); err != nil {
			t.Errorf("%s: fitted model rejected: %v", m.Name(), err)
		}
		if err := ml.CheckWidth(m, 1); err == nil {
			t.Errorf("%s: accepted rows narrower than its splits", m.Name())
		}
	}
	if err := (&RandomForest{}).CheckWidth(5); err == nil {
		t.Error("empty forest accepted")
	}
	if err := (&RandomForest{Trees: []*tree.Regressor{nil}}).CheckWidth(5); err == nil {
		t.Error("forest with a nil tree accepted")
	}
	if err := (&AdaBoostR2{Trees: ada.Trees, Betas: ada.Betas[:1]}).CheckWidth(len(X[0])); err == nil {
		t.Error("adaboost with fewer betas than trees accepted")
	}
}
