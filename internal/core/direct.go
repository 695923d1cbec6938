package core

import (
	"fmt"
	"math"

	"repro/internal/ml/boost"
)

// DirectThreadModel is the baseline of the target ablation, which tests the
// paper's choice of target: instead of
// regressing runtime per (shape, threads) and taking the argmin (§IV-A), it
// regresses the optimal thread count directly from the shape. One row per
// shape, so it sees |candidates|-times less signal.
type DirectThreadModel struct {
	model interface{ Predict([]float64) float64 }
	max   int
}

// TrainDirectThreadModel fits the direct baseline on a gathered sweep.
func TrainDirectThreadModel(data []ShapeTimings, seed int64, quick bool) (*DirectThreadModel, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: no data for direct model")
	}
	rounds := 120
	if quick {
		rounds = 30
	}
	X := make([][]float64, len(data))
	y := make([]float64, len(data))
	max := 1
	for i, st := range data {
		sh := st.Shape
		X[i] = directFeatures(sh.M, sh.K, sh.N)
		best := st.BestMeasured()
		y[i] = float64(best.Threads)
		for _, ct := range st.Times {
			if ct.Threads > max {
				max = ct.Threads
			}
		}
	}
	model := boost.NewXGB(boost.XGBParams{NRounds: rounds, MaxDepth: 4, Seed: seed})
	if err := model.Fit(X, y); err != nil {
		return nil, err
	}
	return &DirectThreadModel{model: model, max: max}, nil
}

// Predict returns the predicted optimal thread count, clamped to [1, max].
func (d *DirectThreadModel) Predict(m, k, n int) int {
	v := int(math.Round(d.model.Predict(directFeatures(m, k, n))))
	if v < 1 {
		v = 1
	}
	if v > d.max {
		v = d.max
	}
	return v
}

// directFeatures are the shape-only (Group 1 minus n_threads) log-scaled
// terms.
func directFeatures(m, k, n int) []float64 {
	fm, fk, fn := float64(m), float64(k), float64(n)
	return []float64{
		math.Log(fm), math.Log(fk), math.Log(fn),
		math.Log(fm * fk), math.Log(fm * fn), math.Log(fk * fn),
		math.Log(fm * fk * fn),
	}
}
