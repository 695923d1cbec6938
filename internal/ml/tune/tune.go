// Package tune provides k-fold cross validation and grid search for the
// hyper-parameter tuning phase of the installation workflow (Fig 2). The
// paper uses CV folds rather than leave-one-out to bound the tuning cost
// (§IV-C).
package tune

import (
	"fmt"
	"math"

	"repro/internal/ml"
)

// Folds partitions n row indices into k contiguous folds after a seeded
// deterministic shuffle. Every index appears in exactly one fold.
func Folds(n, k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	if k > n {
		k = n
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := newSplitMix(uint64(seed) ^ 0xabcdef)
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	folds := make([][]int, k)
	for f := 0; f < k; f++ {
		lo, hi := n*f/k, n*(f+1)/k
		folds[f] = idx[lo:hi]
	}
	return folds
}

// CrossValRMSE returns the mean validation RMSE of the model factory over
// k folds.
func CrossValRMSE(factory func() ml.Regressor, X [][]float64, y []float64, k int, seed int64) (float64, error) {
	if err := ml.ValidateXY(X, y); err != nil {
		return 0, err
	}
	folds := Folds(len(y), k, seed)
	var total float64
	for f, val := range folds {
		inVal := make([]bool, len(y))
		for _, i := range val {
			inVal[i] = true
		}
		var trX [][]float64
		var trY []float64
		for i := range y {
			if !inVal[i] {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		if len(trX) == 0 || len(val) == 0 {
			continue
		}
		model := factory()
		if err := model.Fit(trX, trY); err != nil {
			return 0, fmt.Errorf("tune: fold %d: %w", f, err)
		}
		var ss float64
		for _, i := range val {
			d := model.Predict(X[i]) - y[i]
			ss += d * d
		}
		total += math.Sqrt(ss / float64(len(val)))
	}
	return total / float64(len(folds)), nil
}

// Candidate is one point of a hyper-parameter grid: a label for reporting
// and a factory building the configured model.
type Candidate struct {
	Label   string
	Factory func() ml.Regressor
}

// GridResult reports the winning candidate of a grid search.
type GridResult struct {
	Best Candidate
	// BestRMSE is Best's CV RMSE, NaN for a one-point grid.
	BestRMSE float64
	// All maps candidate labels to their CV RMSE; nil for a one-point grid.
	All map[string]float64
}

// GridSearch cross-validates every candidate and returns the one with the
// lowest mean validation RMSE. A one-point grid has nothing to select, so
// its candidate is returned without cross validation. A grid none of whose
// candidates has a finite CV RMSE is an error.
func GridSearch(cands []Candidate, X [][]float64, y []float64, k int, seed int64) (GridResult, error) {
	switch len(cands) {
	case 0:
		return GridResult{}, fmt.Errorf("tune: empty candidate grid")
	case 1:
		return GridResult{Best: cands[0], BestRMSE: math.NaN()}, nil
	}
	res := GridResult{All: make(map[string]float64, len(cands)), BestRMSE: math.Inf(1)}
	for _, c := range cands {
		rmse, err := CrossValRMSE(c.Factory, X, y, k, seed)
		if err != nil {
			return GridResult{}, fmt.Errorf("tune: candidate %q: %w", c.Label, err)
		}
		res.All[c.Label] = rmse
		if rmse < res.BestRMSE {
			res.BestRMSE = rmse
			res.Best = c
		}
	}
	if math.IsInf(res.BestRMSE, 1) { // every CV RMSE was NaN or +Inf
		labels := make([]string, len(cands))
		for i, c := range cands {
			labels[i] = c.Label
		}
		return GridResult{}, fmt.Errorf("tune: no candidate of grid %q has a finite CV RMSE", labels)
	}
	return res, nil
}

type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
