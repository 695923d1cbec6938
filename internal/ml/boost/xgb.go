// Package boost implements the two gradient-boosting candidates: an
// XGBoost-style booster (second-order exact-greedy splits with L2 leaf
// regularisation and γ pruning) and a LightGBM-style booster (histogram
// split finding with leaf-wise growth). XGBoost is the model the paper
// ultimately ships in ADSALA on both platforms.
package boost

import (
	"math"
	"slices"

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

	// Pre-sorted feature columns, computed once and reused every round (the
	// "exact greedy" column blocks of the XGBoost paper), then the rows in
	// index order.
	sorted := make([]xgbEntry, (d+1)*n)
	for f := 0; f < d; f++ {
		col := sorted[f*n : (f+1)*n]
		for i := range col {
			col[i] = xgbEntry{X[i][f], i}
		}
		slices.SortFunc(col, func(a, b xgbEntry) int { return compareFloat(a.x, b.x) })
	}
	for i := range n {
		sorted[d*n+i].row = i
	}
	b := &xgbBuilder{
		grad: grad, p: p, d: d, n: n,
		segs: make([]xgbEntry, (d+1)*n), scratch: make([]xgbEntry, n), left: make([]bool, n),
	}
	inSample := make([]bool, n)

	rng := newSplitMix(uint64(p.Seed) + 0x1234)
	x.Trees = x.Trees[:0]
	for round := 0; round < p.NRounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient; hessian = 1
		}
		if p.Subsample < 1 {
			for i := range inSample {
				inSample[i] = rng.float64() < p.Subsample
			}
		} else {
			for i := range inSample {
				inSample[i] = true
			}
		}
		m := b.sample(sorted, inSample)
		b.nodes = nil
		b.build(0, m, 0)
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

// xgbEntry is one row's value in one feature column.
type xgbEntry struct {
	x   float64
	row int
}

// xgbBuilder grows one tree over the round's sample. segs holds d+1
// segments of n entries: one per feature column sorted by value, then the
// rows in index order. A node owns the same range [lo, hi) of every
// segment, and a split partitions that range stably into left then right,
// so each node scans only its own rows, in the order the whole segment
// would visit them.
type xgbBuilder struct {
	grad    []float64
	p       XGBParams
	d, n    int
	segs    []xgbEntry
	scratch []xgbEntry // the right part during a partition
	left    []bool     // by row: does the split being applied send it left
	nodes   []xgbNode
}

// seg returns range [lo, hi) of segment s.
func (b *xgbBuilder) seg(s, lo, hi int) []xgbEntry { return b.segs[s*b.n+lo : s*b.n+hi] }

// sample fills every segment with the in-sample rows of sorted, in its
// order, and returns their count.
func (b *xgbBuilder) sample(sorted []xgbEntry, in []bool) int {
	m := 0
	for s := 0; s <= b.d; s++ {
		m = 0
		for _, e := range sorted[s*b.n : (s+1)*b.n] {
			if in[e.row] {
				b.segs[s*b.n+m] = e
				m++
			}
		}
	}
	return m
}

// build grows one node over the range [lo, hi) and returns its index.
func (b *xgbBuilder) build(lo, hi, depth int) int {
	var g float64
	for _, e := range b.seg(b.d, lo, hi) { // ascending row index
		g += b.grad[e.row]
	}
	h := float64(hi - lo) // hessian 1 per sample
	leafValue := 0.0
	if h+b.p.Lambda > 0 {
		leafValue = -g / (h + b.p.Lambda)
	}
	mkLeaf := func() int {
		b.nodes = append(b.nodes, xgbNode{Feature: -1, Value: leafValue})
		return len(b.nodes) - 1
	}
	if depth >= b.p.MaxDepth || hi-lo < 2 || h < 2*b.p.MinChildWeight {
		return mkLeaf()
	}

	// Exact greedy split search over the node's sorted column ranges.
	baseScore := g * g / (h + b.p.Lambda)
	bestGain := b.p.Gamma + 1e-12
	bestF, bestThr := -1, 0.0
	for f := 0; f < b.d; f++ {
		var lg, lh float64
		prevX := math.Inf(-1)
		prevSeen := false
		for _, e := range b.seg(f, lo, hi) {
			xi := e.x
			if prevSeen && xi != prevX && lh >= b.p.MinChildWeight && h-lh >= b.p.MinChildWeight {
				rg, rh := g-lg, h-lh
				gain := 0.5 * (lg*lg/(lh+b.p.Lambda) + rg*rg/(rh+b.p.Lambda) - baseScore)
				if gain > bestGain {
					bestGain, bestF, bestThr = gain, f, prevX+(xi-prevX)/2
				}
			}
			lg += b.grad[e.row]
			lh++
			prevX, prevSeen = xi, true
		}
	}
	if bestF < 0 {
		return mkLeaf()
	}

	for _, e := range b.seg(bestF, lo, hi) {
		b.left[e.row] = e.x <= bestThr
	}
	mid := lo
	for s := 0; s <= b.d; s++ {
		mid = lo + b.partition(b.seg(s, lo, hi))
	}
	self := len(b.nodes)
	b.nodes = append(b.nodes, xgbNode{Feature: bestF, Threshold: bestThr})
	l := b.build(lo, mid, depth+1)
	r := b.build(mid, hi, depth+1)
	b.nodes[self].Left = l
	b.nodes[self].Right = r
	return self
}

// partition moves the entries whose row goes left to the front of seg and
// the others after them, each part in its old order, and returns the size
// of the left part.
func (b *xgbBuilder) partition(seg []xgbEntry) int {
	nl, nr := 0, 0
	for _, e := range seg {
		if b.left[e.row] {
			seg[nl] = e
			nl++
		} else {
			b.scratch[nr] = e
			nr++
		}
	}
	copy(seg[nl:], b.scratch[:nr])
	return nl
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

// compareFloat is x < y as a three-way comparison: negative exactly when
// x < y, positive exactly when y < x, zero otherwise, NaN included
// (cmp.Compare orders NaN first). slices.SortFunc consults only cmp < 0 and
// shares sort.Slice's pdqsort, so it leaves the permutation sort.Slice
// leaves with less = x < y.
func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}
