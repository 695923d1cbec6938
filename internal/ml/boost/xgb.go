// Package boost implements the two gradient-boosting candidates: an
// XGBoost-style booster (second-order exact-greedy splits with L2 leaf
// regularisation and γ pruning) and a LightGBM-style booster (histogram
// split finding with leaf-wise growth). XGBoost is the model the paper
// ultimately ships in ADSALA on both platforms.
package boost

import (
	"math"
	"sort"

	"repro/internal/ml"
)

func init() {
	ml.RegisterKind("xgb", func() ml.Regressor { return NewXGB(XGBParams{}) })
	ml.RegisterKind("lgbm", func() ml.Regressor { return NewLGBM(LGBMParams{}) })
}

// XGBParams configure the XGBoost-style booster. Zero values pick defaults.
type XGBParams struct {
	NRounds        int     `json:"n_rounds"`         // default 200
	MaxDepth       int     `json:"max_depth"`        // default 6
	LearningRate   float64 `json:"learning_rate"`    // default 0.1 (eta)
	Lambda         float64 `json:"lambda"`           // L2 on leaf weights, default 1
	Gamma          float64 `json:"gamma"`            // min split gain, default 0
	MinChildWeight float64 `json:"min_child_weight"` // min hessian sum per leaf, default 1
	Subsample      float64 `json:"subsample"`        // row subsample per round, default 1
	Seed           int64   `json:"seed"`
}

func (p XGBParams) withDefaults() XGBParams {
	if p.NRounds <= 0 {
		p.NRounds = 200
	}
	if p.MaxDepth <= 0 {
		p.MaxDepth = 6
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	if p.MinChildWeight <= 0 {
		p.MinChildWeight = 1
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		p.Subsample = 1
	}
	return p
}

// xgbNode is a node of one boosted tree, stored in a flat slice so the
// whole ensemble serialises compactly.
type xgbNode struct {
	Feature   int     `json:"f"` // -1 for leaf
	Threshold float64 `json:"t,omitempty"`
	Left      int     `json:"l,omitempty"` // child indices into the tree's slice
	Right     int     `json:"r,omitempty"`
	Value     float64 `json:"v"` // leaf weight
}

// XGB is the fitted XGBoost-style gradient-boosted tree ensemble for the
// squared-error objective (gradient g = ŷ−y, hessian h = 1).
type XGB struct {
	Params XGBParams   `json:"params"`
	Base   float64     `json:"base"` // initial prediction (target mean)
	Trees  [][]xgbNode `json:"trees"`
}

// NewXGB returns an unfitted booster.
func NewXGB(p XGBParams) *XGB { return &XGB{Params: p} }

// Name implements ml.Regressor.
func (x *XGB) Name() string { return "XGBoost" }

// Fit implements ml.Regressor.
func (x *XGB) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	p := x.Params.withDefaults()
	n, d := len(y), len(X[0])

	x.Base = 0
	for _, v := range y {
		x.Base += v
	}
	x.Base /= float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = x.Base
	}
	grad := make([]float64, n)

	// Pre-sorted feature orders, computed once and reused every round (the
	// "exact greedy" block structure of the XGBoost paper).
	orders := make([][]int, d)
	for f := 0; f < d; f++ {
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		sort.Slice(ord, func(a, b int) bool { return X[ord[a]][f] < X[ord[b]][f] })
		orders[f] = ord
	}

	rng := newSplitMix(uint64(p.Seed) + 0x1234)
	x.Trees = x.Trees[:0]
	for round := 0; round < p.NRounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient; hessian = 1
		}
		inSample := make([]bool, n)
		if p.Subsample < 1 {
			for i := range inSample {
				inSample[i] = rng.float64() < p.Subsample
			}
		} else {
			for i := range inSample {
				inSample[i] = true
			}
		}
		b := &xgbBuilder{X: X, grad: grad, in: inSample, orders: orders, p: p}
		members := make([]bool, n)
		for i := range members {
			members[i] = inSample[i]
		}
		root := b.build(members, 0)
		if len(b.nodes) == 0 {
			break
		}
		_ = root
		x.Trees = append(x.Trees, b.nodes)
		// Update predictions with the new tree.
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * evalTree(b.nodes, X[i])
		}
	}
	return nil
}

// Predict implements ml.Regressor.
func (x *XGB) Predict(v []float64) float64 {
	lr := x.Params.withDefaults().LearningRate
	s := x.Base
	for _, t := range x.Trees {
		// The conversion rounds the product before the add, so no
		// architecture fuses the two: PredictRows adds the same rounded
		// product and must give the same bits.
		s += float64(lr * evalTree(t, v))
	}
	return s
}

func evalTree(nodes []xgbNode, v []float64) float64 {
	i := 0
	for nodes[i].Feature >= 0 {
		if v[nodes[i].Feature] <= nodes[i].Threshold {
			i = nodes[i].Left
		} else {
			i = nodes[i].Right
		}
	}
	return nodes[i].Value
}

type xgbBuilder struct {
	X      [][]float64
	grad   []float64
	in     []bool
	orders [][]int
	p      XGBParams
	nodes  []xgbNode
}

// build grows one node over the member mask and returns its index.
func (b *xgbBuilder) build(members []bool, depth int) int {
	var g, h float64
	cnt := 0
	for i, m := range members {
		if m {
			g += b.grad[i]
			h++ // hessian 1 per sample
			cnt++
		}
	}
	leafValue := 0.0
	if h+b.p.Lambda > 0 {
		leafValue = -g / (h + b.p.Lambda)
	}
	mkLeaf := func() int {
		b.nodes = append(b.nodes, xgbNode{Feature: -1, Value: leafValue})
		return len(b.nodes) - 1
	}
	if depth >= b.p.MaxDepth || cnt < 2 || h < 2*b.p.MinChildWeight {
		return mkLeaf()
	}

	// Exact greedy split search using the pre-sorted orders.
	baseScore := g * g / (h + b.p.Lambda)
	bestGain := b.p.Gamma + 1e-12
	bestF, bestThr := -1, 0.0
	d := len(b.X[0])
	for f := 0; f < d; f++ {
		var lg, lh float64
		ord := b.orders[f]
		prevX := math.Inf(-1)
		prevSeen := false
		for _, i := range ord {
			if !members[i] {
				continue
			}
			xi := b.X[i][f]
			if prevSeen && xi != prevX && lh >= b.p.MinChildWeight && h-lh >= b.p.MinChildWeight {
				rg, rh := g-lg, h-lh
				gain := 0.5 * (lg*lg/(lh+b.p.Lambda) + rg*rg/(rh+b.p.Lambda) - baseScore)
				if gain > bestGain {
					bestGain, bestF, bestThr = gain, f, prevX+(xi-prevX)/2
				}
			}
			lg += b.grad[i]
			lh++
			prevX, prevSeen = xi, true
		}
	}
	if bestF < 0 {
		return mkLeaf()
	}

	leftM := make([]bool, len(members))
	rightM := make([]bool, len(members))
	for i, m := range members {
		if !m {
			continue
		}
		if b.X[i][bestF] <= bestThr {
			leftM[i] = true
		} else {
			rightM[i] = true
		}
	}
	self := len(b.nodes)
	b.nodes = append(b.nodes, xgbNode{Feature: bestF, Threshold: bestThr})
	l := b.build(leftM, depth+1)
	r := b.build(rightM, depth+1)
	b.nodes[self].Left = l
	b.nodes[self].Right = r
	return self
}

// splitMix is a tiny deterministic PRNG for row subsampling.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitMix) float64() float64 { return float64(r.next()>>11) / float64(1<<53) }

var _ ml.Regressor = (*XGB)(nil)
