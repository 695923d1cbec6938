package linear

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ml"
)

// synthetic linear data y = 3x0 - 2x1 + 5 + noise
func linearData(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = 3*X[i][0] - 2*X[i][1] + 5 + noise*rng.NormFloat64()
	}
	return X, y
}

func TestRegressionRecoversCoefficients(t *testing.T) {
	X, y := linearData(500, 0.01, 1)
	var r Regression
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Weights[0]-3) > 0.01 || math.Abs(r.Weights[1]+2) > 0.01 ||
		math.Abs(r.Weights[2]) > 0.01 || math.Abs(r.Intercept-5) > 0.01 {
		t.Errorf("weights %v intercept %v", r.Weights, r.Intercept)
	}
	if r.Name() == "" {
		t.Error("empty name")
	}
}

func TestRegressionExactOnNoiselessData(t *testing.T) {
	X, y := linearData(50, 0, 2)
	var r Regression
	if err := r.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := ml.PredictBatch(&r, X)
	if rmse := ml.RMSE(pred, y); rmse > 1e-6 {
		t.Errorf("noiseless RMSE = %v", rmse)
	}
}

func TestRegressionRejectsBadInput(t *testing.T) {
	var r Regression
	if err := r.Fit(nil, nil); err == nil {
		t.Error("empty fit should error")
	}
}

func TestRegressionCollinearColumns(t *testing.T) {
	// Duplicated column: jitter ridge keeps the system solvable.
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 100)
	y := make([]float64, 100)
	for i := range X {
		v := rng.NormFloat64()
		X[i] = []float64{v, v}
		y[i] = 2 * v
	}
	var r Regression
	if err := r.Fit(X, y); err != nil {
		t.Fatalf("collinear fit: %v", err)
	}
	// Prediction must still be right even though individual weights are
	// unidentifiable.
	if got := r.Predict([]float64{1, 1}); math.Abs(got-2) > 1e-3 {
		t.Errorf("collinear predict = %v, want 2", got)
	}
}

func TestElasticNetShrinksToZeroAtHugeAlpha(t *testing.T) {
	X, y := linearData(200, 0.1, 4)
	e := NewElasticNet(1e6, 0.5)
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for j, w := range e.Weights {
		if math.Abs(w) > 1e-6 {
			t.Errorf("weight %d = %v, want shrunk to 0", j, w)
		}
	}
	// Intercept should be ~mean(y).
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	if math.Abs(e.Intercept-mean) > 0.1 {
		t.Errorf("intercept %v, want ~%v", e.Intercept, mean)
	}
}

func TestElasticNetApproachesOLSAtTinyAlpha(t *testing.T) {
	X, y := linearData(300, 0.05, 5)
	e := NewElasticNet(1e-6, 0.5)
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Weights[0]-3) > 0.05 || math.Abs(e.Weights[1]+2) > 0.05 {
		t.Errorf("weights %v", e.Weights)
	}
}

func TestElasticNetL1SparsifiesIrrelevantFeature(t *testing.T) {
	X, y := linearData(300, 0.2, 6)
	e := NewElasticNet(0.5, 1.0) // pure lasso
	if err := e.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Weights[2]) > 1e-9 {
		t.Errorf("irrelevant weight = %v, want exactly 0 under L1", e.Weights[2])
	}
	if e.Weights[0] < 1 {
		t.Errorf("relevant weight over-shrunk: %v", e.Weights[0])
	}
}

func TestElasticNetValidation(t *testing.T) {
	e := NewElasticNet(-1, 0.5)
	if err := e.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("negative alpha should error")
	}
	e = NewElasticNet(1, 2)
	if err := e.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Error("l1 ratio > 1 should error")
	}
}

func TestBayesianRidgeRecoversCoefficients(t *testing.T) {
	X, y := linearData(400, 0.1, 7)
	b := NewBayesianRidge()
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Weights[0]-3) > 0.05 || math.Abs(b.Weights[1]+2) > 0.05 {
		t.Errorf("weights %v", b.Weights)
	}
	if b.AlphaN <= 0 || b.LambdaW <= 0 {
		t.Errorf("precisions α=%v λ=%v, want positive", b.AlphaN, b.LambdaW)
	}
	// Noise precision should roughly match 1/0.1² = 100.
	if b.AlphaN < 20 || b.AlphaN > 500 {
		t.Errorf("noise precision %v implausible for σ=0.1", b.AlphaN)
	}
}

func TestBayesianRidgeShrinksMoreThanOLSOnTinyData(t *testing.T) {
	// With 6 noisy points and 3 features, the Bayesian prior should shrink
	// weights relative to OLS.
	X, y := linearData(6, 2.0, 8)
	var ols Regression
	if err := ols.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	b := NewBayesianRidge()
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	olsNorm, bNorm := 0.0, 0.0
	for j := range ols.Weights {
		olsNorm += ols.Weights[j] * ols.Weights[j]
		bNorm += b.Weights[j] * b.Weights[j]
	}
	if bNorm > olsNorm+1e-9 {
		t.Errorf("Bayesian ‖w‖²=%v exceeds OLS ‖w‖²=%v", bNorm, olsNorm)
	}
}

func TestSoftThreshold(t *testing.T) {
	if softThreshold(5, 2) != 3 || softThreshold(-5, 2) != -3 || softThreshold(1, 2) != 0 {
		t.Error("softThreshold wrong")
	}
}

func TestPersistenceAllLinearModels(t *testing.T) {
	X, y := linearData(100, 0.1, 9)
	cases := []struct {
		kind  string
		model ml.Regressor
	}{
		{"linear", &Regression{}},
		{"elasticnet", NewElasticNet(0.01, 0.5)},
		{"bayesridge", NewBayesianRidge()},
	}
	for _, c := range cases {
		if err := c.model.Fit(X, y); err != nil {
			t.Fatalf("%s fit: %v", c.kind, err)
		}
		blob, err := ml.Marshal(c.kind, c.model)
		if err != nil {
			t.Fatalf("%s marshal: %v", c.kind, err)
		}
		back, err := ml.Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s unmarshal: %v", c.kind, err)
		}
		probe := []float64{0.3, -0.7, 1.1}
		if got, want := back.Predict(probe), c.model.Predict(probe); got != want {
			t.Errorf("%s: restored predict %v != %v", c.kind, got, want)
		}
	}
}

// Property: OLS predictions are invariant under feature shift (intercept
// absorbs it).
func TestRegressionShiftInvarianceProperty(t *testing.T) {
	X, y := linearData(120, 0.05, 10)
	var base Regression
	if err := base.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	f := func(shiftRaw int8) bool {
		shift := float64(shiftRaw) / 4
		Xs := make([][]float64, len(X))
		for i := range X {
			Xs[i] = []float64{X[i][0] + shift, X[i][1] + shift, X[i][2] + shift}
		}
		var r Regression
		if r.Fit(Xs, y) != nil {
			return false
		}
		probe := []float64{0.5, 0.5, 0.5}
		shifted := []float64{0.5 + shift, 0.5 + shift, 0.5 + shift}
		return math.Abs(r.Predict(shifted)-base.Predict(probe)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {1, 1}}
	if _, err := solveDense(a, []float64{1, 2}); err == nil {
		t.Error("singular system should error")
	}
}

// TestCheckWidth: all three linear models want exactly one weight per
// input column.
func TestCheckWidth(t *testing.T) {
	w := []float64{1, 2, 3}
	models := map[string]interface{ CheckWidth(int) error }{
		"linear":     &Regression{Weights: w},
		"elasticnet": &ElasticNet{Weights: w},
		"bayesridge": &BayesianRidge{Weights: w},
	}
	for kind, m := range models {
		if err := m.CheckWidth(3); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		for _, width := range []int{2, 4} {
			if err := m.CheckWidth(width); err == nil {
				t.Errorf("%s: 3 weights accepted for %d columns", kind, width)
			}
		}
	}
}
