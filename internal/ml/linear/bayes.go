package linear

import (
	"fmt"

	"repro/internal/ml"
)

// BayesianRidge is Bayesian linear regression with Gaussian priors on the
// weights, fitted by evidence (type-II maximum likelihood) iteration over
// the noise precision α and weight precision λ — the classic MacKay scheme
// used by scikit-learn's BayesianRidge.
type BayesianRidge struct {
	MaxIter int     `json:"max_iter"`
	Tol     float64 `json:"tol"`

	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
	AlphaN    float64   `json:"alpha_noise"`   // fitted noise precision
	LambdaW   float64   `json:"lambda_weight"` // fitted weight precision
}

// NewBayesianRidge returns a BayesianRidge with default iteration limits.
func NewBayesianRidge() *BayesianRidge {
	return &BayesianRidge{MaxIter: 300, Tol: 1e-4}
}

// Name implements ml.Regressor.
func (b *BayesianRidge) Name() string { return "Bayes Regression" }

// Fit implements ml.Regressor.
func (b *BayesianRidge) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	if b.MaxIter <= 0 {
		b.MaxIter = 300
	}
	if b.Tol <= 0 {
		b.Tol = 1e-4
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

	// Precompute Gram matrix G = XᵀX and moment vector XᵀY on centred data.
	gram := make([][]float64, d)
	for j := range gram {
		gram[j] = make([]float64, d)
	}
	xty := make([]float64, d)
	var yty float64
	for i := 0; i < n; i++ {
		yc := y[i] - ym
		yty += yc * yc
		for j := 0; j < d; j++ {
			xj := X[i][j] - xm[j]
			xty[j] += xj * yc
			for l := j; l < d; l++ {
				gram[j][l] += xj * (X[i][l] - xm[l])
			}
		}
	}
	for j := 0; j < d; j++ {
		for l := 0; l < j; l++ {
			gram[j][l] = gram[l][j]
		}
	}

	alpha, lambda := 1.0, 1.0
	var w []float64
	for it := 0; it < b.MaxIter; it++ {
		// Posterior mean: (λI + αG) w = α XᵀY.
		a := make([][]float64, d)
		rhs := make([]float64, d)
		for j := 0; j < d; j++ {
			a[j] = append([]float64(nil), gram[j]...)
			for l := 0; l < d; l++ {
				a[j][l] *= alpha
			}
			a[j][j] += lambda
			rhs[j] = alpha * xty[j]
		}
		var err error
		w, err = solveDense(a, rhs)
		if err != nil {
			return fmt.Errorf("bayesridge: %w", err)
		}

		// Effective number of parameters γ = Σ αg_j/(λ+αg_j) approximated
		// via the diagonal of G (full eigendecomposition avoided; this is
		// the standard fast approximation and converges to the same fixed
		// point for well-conditioned problems).
		var gamma float64
		for j := 0; j < d; j++ {
			g := alpha * gram[j][j]
			gamma += g / (lambda + g)
		}

		// Residual sum of squares.
		rss := yty
		for j := 0; j < d; j++ {
			rss -= w[j] * xty[j]
		}
		if rss < 1e-12 {
			rss = 1e-12
		}
		wNorm := dot(w, w)
		if wNorm < 1e-12 {
			wNorm = 1e-12
		}

		newLambda := gamma / wNorm
		newAlpha := (fn - gamma) / rss
		if newAlpha <= 0 {
			newAlpha = alpha
		}
		if converged(alpha, newAlpha, b.Tol) && converged(lambda, newLambda, b.Tol) {
			alpha, lambda = newAlpha, newLambda
			break
		}
		alpha, lambda = newAlpha, newLambda
	}

	b.Weights = w
	b.Intercept = ym - dot(w, xm)
	b.AlphaN, b.LambdaW = alpha, lambda
	return nil
}

// Predict implements ml.Regressor.
func (b *BayesianRidge) Predict(x []float64) float64 {
	return dot(b.Weights, x) + b.Intercept
}

// CheckWidth implements ml.WidthChecker.
func (b *BayesianRidge) CheckWidth(width int) error { return checkWeights(b.Weights, width) }

func converged(old, new, tol float64) bool {
	diff := old - new
	if diff < 0 {
		diff = -diff
	}
	return diff <= tol*(1+old)
}

var _ ml.Regressor = (*BayesianRidge)(nil)
