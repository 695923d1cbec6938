package linear

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// ElasticNet is linear regression with combined L1/L2 regularisation,
// fitted by cyclic coordinate descent (the scikit-learn formulation):
//
//	min_w  1/(2n)·‖y − Xw − b‖² + α·ρ·‖w‖₁ + α·(1−ρ)/2·‖w‖²
//
// where ρ is the L1 ratio.
type ElasticNet struct {
	Alpha   float64 `json:"alpha"`
	L1Ratio float64 `json:"l1_ratio"`
	MaxIter int     `json:"max_iter"`
	Tol     float64 `json:"tol"`

	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
}

// NewElasticNet returns an ElasticNet with the given regularisation strength
// and L1 ratio, and default iteration limits.
func NewElasticNet(alpha, l1Ratio float64) *ElasticNet {
	return &ElasticNet{Alpha: alpha, L1Ratio: l1Ratio, MaxIter: 1000, Tol: 1e-6}
}

// Name implements ml.Regressor.
func (e *ElasticNet) Name() string { return "ElasticNet" }

// Fit implements ml.Regressor using cyclic coordinate descent on centred
// data.
func (e *ElasticNet) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	if e.Alpha < 0 || e.L1Ratio < 0 || e.L1Ratio > 1 {
		return fmt.Errorf("elasticnet: bad hyper-parameters alpha=%v l1=%v", e.Alpha, e.L1Ratio)
	}
	if e.MaxIter <= 0 {
		e.MaxIter = 1000
	}
	if e.Tol <= 0 {
		e.Tol = 1e-6
	}
	n, d := len(X), len(X[0])
	fn := float64(n)

	// Centre.
	xm := make([]float64, d)
	var ym float64
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xm[j] += X[i][j]
		}
		ym += y[i]
	}
	for j := range xm {
		xm[j] /= fn
	}
	ym /= fn

	// Column-major centred copies for cache-friendly coordinate sweeps.
	cols := make([][]float64, d)
	colSq := make([]float64, d)
	for j := 0; j < d; j++ {
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			c[i] = X[i][j] - xm[j]
			colSq[j] += c[i] * c[i]
		}
		cols[j] = c
	}

	w := make([]float64, d)
	resid := make([]float64, n)
	for i := range resid {
		resid[i] = y[i] - ym
	}

	l1 := e.Alpha * e.L1Ratio * fn
	l2 := e.Alpha * (1 - e.L1Ratio) * fn
	for it := 0; it < e.MaxIter; it++ {
		var maxDelta float64
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = X_j · resid + w_j · ‖X_j‖².
			var rho float64
			c := cols[j]
			for i := 0; i < n; i++ {
				rho += c[i] * resid[i]
			}
			rho += w[j] * colSq[j]
			newW := softThreshold(rho, l1) / (colSq[j] + l2)
			if delta := newW - w[j]; delta != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= delta * c[i]
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				w[j] = newW
			}
		}
		if maxDelta < e.Tol {
			break
		}
	}
	e.Weights = w
	e.Intercept = ym - dot(w, xm)
	return nil
}

// Predict implements ml.Regressor.
func (e *ElasticNet) Predict(x []float64) float64 {
	return dot(e.Weights, x) + e.Intercept
}

// CheckWidth implements ml.WidthChecker.
func (e *ElasticNet) CheckWidth(width int) error { return checkWeights(e.Weights, width) }

func softThreshold(v, t float64) float64 {
	switch {
	case v > t:
		return v - t
	case v < -t:
		return v + t
	default:
		return 0
	}
}

var _ ml.Regressor = (*ElasticNet)(nil)
