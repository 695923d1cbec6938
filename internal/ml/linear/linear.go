// Package linear implements the paper's linear candidate models: ordinary
// least squares, ElasticNet (coordinate descent) and Bayesian ridge
// regression (evidence maximisation). They are fast to evaluate but, as
// Tables III/IV show, too inaccurate for the nonlinear runtime surface.
package linear

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

func init() {
	ml.RegisterKind("linear", func() ml.Regressor { return &Regression{} })
	ml.RegisterKind("elasticnet", func() ml.Regressor { return NewElasticNet(1.0, 0.5) })
	ml.RegisterKind("bayesridge", func() ml.Regressor { return NewBayesianRidge() })
}

// Regression is ordinary least squares fitted via the normal equations with
// a tiny Tikhonov jitter for numerical safety.
type Regression struct {
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

// Name implements ml.Regressor.
func (r *Regression) Name() string { return "Linear Regression" }

// Fit solves min ‖Xw + b − y‖².
func (r *Regression) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	w, b, err := solveLeastSquares(X, y, 1e-10)
	if err != nil {
		return fmt.Errorf("linear: %w", err)
	}
	r.Weights, r.Intercept = w, b
	return nil
}

// Predict implements ml.Regressor.
func (r *Regression) Predict(x []float64) float64 {
	return dot(r.Weights, x) + r.Intercept
}

// solveLeastSquares centres the data, forms the (d×d) Gram system with ridge
// jitter, and solves by Gaussian elimination with partial pivoting.
func solveLeastSquares(X [][]float64, y []float64, ridge float64) ([]float64, float64, error) {
	n, d := len(X), len(X[0])
	xm := make([]float64, d)
	var ym float64
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xm[j] += X[i][j]
		}
		ym += y[i]
	}
	for j := range xm {
		xm[j] /= float64(n)
	}
	ym /= float64(n)

	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d)
	}
	rhs := make([]float64, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xj := X[i][j] - xm[j]
			rhs[j] += xj * (y[i] - ym)
			for l := j; l < d; l++ {
				a[j][l] += xj * (X[i][l] - xm[l])
			}
		}
	}
	for j := 0; j < d; j++ {
		for l := 0; l < j; l++ {
			a[j][l] = a[l][j]
		}
		a[j][j] += ridge
	}
	w, err := solveDense(a, rhs)
	if err != nil {
		return nil, 0, err
	}
	return w, ym - dot(w, xm), nil
}

// solveDense solves a·x = b in place by Gaussian elimination with partial
// pivoting. a and b are consumed.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	d := len(a)
	for col := 0; col < d; col++ {
		// Pivot.
		piv, best := col, math.Abs(a[col][col])
		for r := col + 1; r < d; r++ {
			if v := math.Abs(a[r][col]); v > best {
				piv, best = r, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate.
		inv := 1 / a[col][col]
		for r := col + 1; r < d; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for cc := col; cc < d; cc++ {
				a[r][cc] -= f * a[col][cc]
			}
			b[r] -= f * b[col]
		}
	}
	// Back-substitute.
	x := make([]float64, d)
	for r := d - 1; r >= 0; r-- {
		s := b[r]
		for cc := r + 1; cc < d; cc++ {
			s -= a[r][cc] * x[cc]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

// checkWeights is the shared ml.WidthChecker body of the three linear
// models: one weight per input column.
func checkWeights(weights []float64, width int) error {
	if len(weights) != width {
		return fmt.Errorf("linear: %d weights, model input has %d columns", len(weights), width)
	}
	return nil
}

// CheckWidth implements ml.WidthChecker.
func (r *Regression) CheckWidth(width int) error { return checkWeights(r.Weights, width) }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

var _ ml.Regressor = (*Regression)(nil)
