package tune

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/ml/linear"
	"repro/internal/ml/tree"
)

func linearData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 2*X[i][0] - X[i][1] + 0.1*rng.NormFloat64()
	}
	return X, y
}

func TestFoldsPartition(t *testing.T) {
	folds := Folds(103, 5, 1)
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		for _, i := range f {
			seen[i]++
		}
	}
	if len(seen) != 103 {
		t.Fatalf("folds cover %d indices, want 103", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d appears %d times", i, c)
		}
	}
	// Fold sizes within 1 of each other.
	for _, f := range folds {
		if len(f) < 20 || len(f) > 21 {
			t.Errorf("fold size %d", len(f))
		}
	}
}

func TestFoldsClamping(t *testing.T) {
	if got := len(Folds(3, 10, 1)); got != 3 {
		t.Errorf("k>n should clamp to n: %d", got)
	}
	if got := len(Folds(10, 0, 1)); got != 2 {
		t.Errorf("k<2 should clamp to 2: %d", got)
	}
}

func TestCrossValRMSEReasonable(t *testing.T) {
	X, y := linearData(200, 1)
	rmse, err := CrossValRMSE(func() ml.Regressor { return &linear.Regression{} }, X, y, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.2 {
		t.Errorf("CV RMSE %v too high for near-noiseless linear data", rmse)
	}
	if _, err := CrossValRMSE(func() ml.Regressor { return &linear.Regression{} }, nil, nil, 5, 1); err == nil {
		t.Error("empty data should error")
	}
}

func TestGridSearchPicksBetterModel(t *testing.T) {
	X, y := linearData(200, 2)
	// Depth-1 stump vs OLS on linear data: OLS must win.
	cands := []Candidate{
		{Label: "stump", Factory: func() ml.Regressor {
			return tree.NewRegressor(tree.Params{MaxDepth: 1})
		}},
		{Label: "ols", Factory: func() ml.Regressor { return &linear.Regression{} }},
	}
	res, err := GridSearch(cands, X, y, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Label != "ols" {
		t.Errorf("grid picked %q (scores %v)", res.Best.Label, res.All)
	}
	if len(res.All) != 2 {
		t.Errorf("All has %d entries", len(res.All))
	}
	if res.BestRMSE != res.All["ols"] {
		t.Error("BestRMSE inconsistent with All")
	}
}

func TestGridSearchEmpty(t *testing.T) {
	if _, err := GridSearch(nil, [][]float64{{1}}, []float64{1}, 2, 1); err == nil {
		t.Error("empty grid should error")
	}
}

// counted builds the model of factory and counts the calls in *n.
func counted(n *int, factory func() ml.Regressor) func() ml.Regressor {
	return func() ml.Regressor { *n++; return factory() }
}

func TestGridSearchOnePointSkipsCV(t *testing.T) {
	X, y := linearData(60, 3)
	calls := 0
	cands := []Candidate{{Label: "ols", Factory: counted(&calls, func() ml.Regressor { return &linear.Regression{} })}}
	res, err := GridSearch(cands, X, y, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("a one-point grid built %d models, want 0", calls)
	}
	if res.Best.Label != "ols" || !math.IsNaN(res.BestRMSE) || res.All != nil {
		t.Errorf("one-point grid result %+v", res)
	}
}

func TestGridSearchCrossValidatesEveryPoint(t *testing.T) {
	X, y := linearData(60, 4)
	const k = 3
	var stump, ols int
	cands := []Candidate{
		{Label: "stump", Factory: counted(&stump, func() ml.Regressor { return tree.NewRegressor(tree.Params{MaxDepth: 1}) })},
		{Label: "ols", Factory: counted(&ols, func() ml.Regressor { return &linear.Regression{} })},
	}
	if _, err := GridSearch(cands, X, y, k, 1); err != nil {
		t.Fatal(err)
	}
	if stump != k || ols != k {
		t.Errorf("factories called %d and %d times, want %d each", stump, ols, k)
	}
}

// nanModel fits anything and predicts NaN.
type nanModel struct{}

func (nanModel) Name() string                     { return "nan" }
func (nanModel) Fit([][]float64, []float64) error { return nil }
func (nanModel) Predict([]float64) float64        { return math.NaN() }

func TestGridSearchNoFiniteRMSE(t *testing.T) {
	X, y := linearData(60, 5)
	nan := func() ml.Regressor { return nanModel{} }
	_, err := GridSearch([]Candidate{{Label: "a", Factory: nan}, {Label: "b", Factory: nan}}, X, y, 3, 1)
	if err == nil || !strings.Contains(err.Error(), `["a" "b"]`) {
		t.Errorf("all-NaN grid: err = %v, want one naming the grid", err)
	}
	res, err := GridSearch([]Candidate{
		{Label: "a", Factory: nan},
		{Label: "ols", Factory: func() ml.Regressor { return &linear.Regression{} }},
	}, X, y, 3, 1)
	if err != nil || res.Best.Label != "ols" {
		t.Errorf("one NaN point: best %q, err %v", res.Best.Label, err)
	}
}

func TestFoldsDeterministic(t *testing.T) {
	a := Folds(50, 5, 9)
	b := Folds(50, 5, 9)
	for f := range a {
		for i := range a[f] {
			if a[f][i] != b[f][i] {
				t.Fatal("same-seed folds differ")
			}
		}
	}
}
