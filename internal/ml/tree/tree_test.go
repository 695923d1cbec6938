package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

// stepData is a piecewise-constant target: ideal for trees.
func stepData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
		switch {
		case X[i][0] < 3:
			y[i] = 1
		case X[i][1] < 5:
			y[i] = 5
		default:
			y[i] = 9
		}
	}
	return X, y
}

func TestTreeFitsStepFunction(t *testing.T) {
	X, y := stepData(500, 1)
	tr := NewRegressor(Params{MaxDepth: 6})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictBatch(tr, X)
	if rmse := ml.RMSE(pred, y); rmse > 0.05 {
		t.Errorf("step-function RMSE = %v, want ~0", rmse)
	}
	if tr.Name() != "Decision Tree" {
		t.Errorf("Name = %q", tr.Name())
	}
}

func TestTreeDepthLimit(t *testing.T) {
	X, y := stepData(300, 2)
	tr := NewRegressor(Params{MaxDepth: 2})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if d := tr.Depth(); d > 2 {
		t.Errorf("depth %d exceeds limit 2", d)
	}
	// On noisy data a deeper tree keeps splitting, so the limit binds.
	rng := rand.New(rand.NewSource(42))
	noisy := make([]float64, len(y))
	for i := range noisy {
		noisy[i] = y[i] + rng.NormFloat64()
	}
	shallow := NewRegressor(Params{MaxDepth: 2})
	deep := NewRegressor(Params{MaxDepth: 10})
	if err := shallow.Fit(X, noisy); err != nil {
		t.Fatal(err)
	}
	if err := deep.Fit(X, noisy); err != nil {
		t.Fatal(err)
	}
	if deep.NodeCount() <= shallow.NodeCount() {
		t.Error("deeper tree should have more nodes on noisy data")
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	X, y := stepData(100, 3)
	tr := NewRegressor(Params{MaxDepth: 20, MinSamplesLeaf: 40})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With leaves of >= 40 samples out of 100, at most 2 splits are possible.
	if tr.NodeCount() > 5 {
		t.Errorf("node count %d too high for MinSamplesLeaf=40", tr.NodeCount())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{4, 4, 4}
	tr := NewRegressor(Params{})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 {
		t.Errorf("constant target grew depth %d", tr.Depth())
	}
	if got := tr.Predict([]float64{99}); got != 4 {
		t.Errorf("Predict = %v, want 4", got)
	}
}

func TestTreeSingleSample(t *testing.T) {
	tr := NewRegressor(Params{})
	if err := tr.Fit([][]float64{{1, 2}}, []float64{7}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{0, 0}); got != 7 {
		t.Errorf("Predict = %v", got)
	}
}

func TestTreeRejectsBadInput(t *testing.T) {
	tr := NewRegressor(Params{})
	if err := tr.Fit(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
	if err := tr.FitWeighted([][]float64{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("weight length mismatch should error")
	}
}

func TestWeightedFitPrefersHeavySamples(t *testing.T) {
	// Two clusters with contradictory targets at the same x; weights decide.
	X := [][]float64{{1}, {1}, {2}, {2}}
	y := []float64{0, 10, 0, 10}
	w := []float64{100, 1, 100, 1}
	tr := NewRegressor(Params{MaxDepth: 3})
	if err := tr.FitWeighted(X, y, w); err != nil {
		t.Fatal(err)
	}
	if got := tr.Predict([]float64{1}); got > 1 {
		t.Errorf("weighted predict = %v, want near 0", got)
	}
}

func TestTreePersistence(t *testing.T) {
	X, y := stepData(200, 4)
	tr := NewRegressor(Params{MaxDepth: 5})
	if err := tr.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	blob, err := ml.Marshal("tree", tr)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ml.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if back.Predict(X[i]) != tr.Predict(X[i]) {
			t.Fatal("restored tree disagrees")
		}
	}
}

// Property: predictions are always within [min(y), max(y)] — leaf values are
// means of target subsets.
func TestTreePredictionRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(nRaw uint8, seed int64) bool {
		n := 5 + int(nRaw%80)
		X := make([][]float64, n)
		y := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64() * 10
			if y[i] < lo {
				lo = y[i]
			}
			if y[i] > hi {
				hi = y[i]
			}
		}
		tr := NewRegressor(Params{MaxDepth: 8})
		if tr.Fit(X, y) != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			p := tr.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < lo-1e-9 || p > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: deterministic — same data and params give identical trees.
func TestTreeDeterminismProperty(t *testing.T) {
	X, y := stepData(150, 6)
	a := NewRegressor(Params{MaxDepth: 6, MaxFeatures: 1, Seed: 3})
	b := NewRegressor(Params{MaxDepth: 6, MaxFeatures: 1, Seed: 3})
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := []float64{rng.Float64() * 10, rng.Float64() * 10}
		if a.Predict(p) != b.Predict(p) {
			t.Fatal("same-seed trees disagree")
		}
	}
}

// TestCheckWidth: a fitted tree passes at its own width, and each way a
// decoded tree could make Predict index outside the row or follow a nil
// child is refused.
func TestCheckWidth(t *testing.T) {
	X, y := stepData(80, 2)
	fitted := NewRegressor(Params{MaxDepth: 4})
	if err := fitted.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := fitted.CheckWidth(2); err != nil {
		t.Errorf("fitted tree rejected: %v", err)
	}
	leaf := &Node{Feature: -1, Value: 1}
	bad := map[string]*Regressor{
		"no root":              {},
		"feature out of range": {Root: &Node{Feature: 2, Left: leaf, Right: leaf}},
		"missing child":        {Root: &Node{Feature: 0, Left: leaf}},
		"deep feature":         {Root: &Node{Feature: 0, Left: leaf, Right: &Node{Feature: 9, Left: leaf, Right: leaf}}},
	}
	for name, r := range bad {
		if err := r.CheckWidth(2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var none *Regressor
	if err := none.CheckWidth(2); err == nil {
		t.Error("nil tree accepted")
	}
}
