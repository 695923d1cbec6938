// Package ensemble implements the bagging and boosting tree ensembles of
// Tables III/IV: Random Forest (parallel bootstrap bagging) and AdaBoost.R2
// (sequential weighted boosting).
package ensemble

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/tree"
)

func init() {
	ml.RegisterKind("forest", func() ml.Regressor { return NewRandomForest(ForestParams{}) })
	ml.RegisterKind("adaboost", func() ml.Regressor { return NewAdaBoostR2(AdaParams{}) })
}

// ForestParams configures a Random Forest. Zero values select defaults.
type ForestParams struct {
	NTrees int `json:"n_trees"` // default 100
	// MaxFeatures per split; 0 picks d/3 (the regression convention).
	MaxFeatures    int   `json:"max_features"`
	MaxDepth       int   `json:"max_depth"`        // default 16
	MinSamplesLeaf int   `json:"min_samples_leaf"` // default 2
	Seed           int64 `json:"seed"`
}

// RandomForest averages bootstrap-trained, feature-subsampled CART trees.
// Trees are fitted in parallel — the forest's slow *evaluation* (every tree
// visited per prediction) is what sinks its estimated speedup in Tables
// III/IV despite the excellent RMSE.
type RandomForest struct {
	Params ForestParams      `json:"params"`
	Trees  []*tree.Regressor `json:"trees"`
}

// NewRandomForest returns an unfitted forest.
func NewRandomForest(p ForestParams) *RandomForest { return &RandomForest{Params: p} }

// Name implements ml.Regressor.
func (f *RandomForest) Name() string { return "Random Forest" }

// Fit implements ml.Regressor, training trees across GOMAXPROCS goroutines.
func (f *RandomForest) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	p := f.Params
	if p.NTrees <= 0 {
		p.NTrees = 100
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 16
	}
	if p.MinSamplesLeaf <= 0 {
		p.MinSamplesLeaf = 2
	}
	if p.MaxFeatures <= 0 {
		p.MaxFeatures = (len(X[0]) + 2) / 3
	}

	n := len(y)
	f.Trees = make([]*tree.Regressor, p.NTrees)
	errs := make([]error, p.NTrees)

	workers := runtime.GOMAXPROCS(0)
	if workers > p.NTrees {
		workers = p.NTrees
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range work {
				rng := rand.New(rand.NewSource(p.Seed + int64(ti)*7919))
				bx := make([][]float64, n)
				by := make([]float64, n)
				for i := 0; i < n; i++ {
					j := rng.Intn(n)
					bx[i], by[i] = X[j], y[j]
				}
				tr := tree.NewRegressor(tree.Params{
					MaxDepth:       p.MaxDepth,
					MinSamplesLeaf: p.MinSamplesLeaf,
					MaxFeatures:    p.MaxFeatures,
					Seed:           p.Seed + int64(ti),
				})
				errs[ti] = tr.Fit(bx, by)
				f.Trees[ti] = tr
			}
		}()
	}
	for ti := 0; ti < p.NTrees; ti++ {
		work <- ti
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("forest: %w", err)
		}
	}
	return nil
}

// Predict implements ml.Regressor by averaging tree outputs.
func (f *RandomForest) Predict(x []float64) float64 {
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(x)
	}
	return s / float64(len(f.Trees))
}

// checkTrees applies tree.Regressor.CheckWidth to every member of a
// non-empty ensemble.
func checkTrees(trees []*tree.Regressor, width int) error {
	if len(trees) == 0 {
		return fmt.Errorf("no trees")
	}
	for i, t := range trees {
		if err := t.CheckWidth(width); err != nil {
			return fmt.Errorf("trees[%d]: %w", i, err)
		}
	}
	return nil
}

// CheckWidth implements ml.WidthChecker.
func (f *RandomForest) CheckWidth(width int) error {
	if err := checkTrees(f.Trees, width); err != nil {
		return fmt.Errorf("ensemble: forest %w", err)
	}
	return nil
}

var _ ml.Regressor = (*RandomForest)(nil)

// AdaParams configures AdaBoost.R2. Zero values select defaults.
type AdaParams struct {
	NEstimators  int     `json:"n_estimators"`  // default 50
	MaxDepth     int     `json:"max_depth"`     // default 4 (stumps-ish)
	LearningRate float64 `json:"learning_rate"` // default 1.0
	Seed         int64   `json:"seed"`
}

// AdaBoostR2 implements Drucker's AdaBoost.R2 with linear loss: each round
// fits a weighted tree, reweights samples by relative error, and the final
// prediction is the weighted median of the stage predictions.
type AdaBoostR2 struct {
	Params AdaParams         `json:"params"`
	Trees  []*tree.Regressor `json:"trees"`
	Betas  []float64         `json:"betas"` // stage confidence weights
}

// NewAdaBoostR2 returns an unfitted AdaBoost.R2 ensemble.
func NewAdaBoostR2(p AdaParams) *AdaBoostR2 { return &AdaBoostR2{Params: p} }

// Name implements ml.Regressor.
func (a *AdaBoostR2) Name() string { return "AdaBoost" }

// Fit implements ml.Regressor.
func (a *AdaBoostR2) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	p := a.Params
	if p.NEstimators <= 0 {
		p.NEstimators = 50
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 4
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 1
	}

	n := len(y)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	a.Trees = a.Trees[:0]
	a.Betas = a.Betas[:0]

	for round := 0; round < p.NEstimators; round++ {
		tr := tree.NewRegressor(tree.Params{MaxDepth: p.MaxDepth, Seed: p.Seed + int64(round)})
		if err := tr.FitWeighted(X, y, w); err != nil {
			return fmt.Errorf("adaboost round %d: %w", round, err)
		}
		// Linear loss normalised by the max error.
		pred := ml.PredictBatch(tr, X)
		var maxErr float64
		for i := range y {
			if e := math.Abs(pred[i] - y[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr == 0 {
			// Perfect fit: keep with full confidence and stop.
			a.Trees = append(a.Trees, tr)
			a.Betas = append(a.Betas, 1e-9)
			break
		}
		var avgLoss float64
		loss := make([]float64, n)
		for i := range y {
			loss[i] = math.Abs(pred[i]-y[i]) / maxErr
			avgLoss += loss[i] * w[i]
		}
		if avgLoss >= 0.5 {
			if len(a.Trees) == 0 {
				// Degenerate data: keep one tree anyway.
				a.Trees = append(a.Trees, tr)
				a.Betas = append(a.Betas, 1)
			}
			break
		}
		beta := avgLoss / (1 - avgLoss)
		a.Trees = append(a.Trees, tr)
		a.Betas = append(a.Betas, beta)
		// Reweight: low-loss samples shrink.
		var sum float64
		for i := range w {
			w[i] *= math.Pow(beta, p.LearningRate*(1-loss[i]))
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	if len(a.Trees) == 0 {
		return fmt.Errorf("adaboost: no usable rounds")
	}
	return nil
}

// Predict implements ml.Regressor with the weighted-median combination rule
// of AdaBoost.R2 (weights ln(1/β)).
func (a *AdaBoostR2) Predict(x []float64) float64 {
	type pw struct{ pred, w float64 }
	// Predict can sit on the serving hot path; the default ensemble (50
	// stages) fits in a stack-backed array, so the make fallback only fires
	// for unusually large tuning configurations.
	var psArr [64]pw
	var ps []pw
	if len(a.Trees) <= len(psArr) {
		ps = psArr[:len(a.Trees)]
	} else {
		ps = make([]pw, len(a.Trees))
	}
	var totW float64
	for i, t := range a.Trees {
		wi := math.Log(1 / a.Betas[i])
		if wi <= 0 {
			wi = 1e-12
		}
		ps[i] = pw{t.Predict(x), wi}
		totW += wi
	}
	// Weighted median by sorting predictions.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].pred < ps[j-1].pred; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	var acc float64
	for _, p := range ps {
		acc += p.w
		if acc >= totW/2 {
			return p.pred
		}
	}
	return ps[len(ps)-1].pred
}

// CheckWidth implements ml.WidthChecker.
func (a *AdaBoostR2) CheckWidth(width int) error {
	if len(a.Betas) != len(a.Trees) {
		return fmt.Errorf("ensemble: adaboost has %d betas for %d trees", len(a.Betas), len(a.Trees))
	}
	if err := checkTrees(a.Trees, width); err != nil {
		return fmt.Errorf("ensemble: adaboost %w", err)
	}
	return nil
}

var _ ml.Regressor = (*AdaBoostR2)(nil)
