// Package tree implements a CART regression tree with exact greedy
// variance-reduction splits. It is the base learner of the Random Forest,
// AdaBoost and gradient-boosting ensembles.
package tree

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/ml"
)

func init() {
	ml.RegisterKind("tree", func() ml.Regressor { return NewRegressor(Params{}) })
}

// Params bound tree growth. Zero values select the defaults noted per field.
type Params struct {
	MaxDepth       int `json:"max_depth"`        // default 12
	MinSamplesLeaf int `json:"min_samples_leaf"` // default 1
	// MaxFeatures is the number of features considered per split; 0 means
	// all. Random Forest sets this below the feature count for decorrelation.
	MaxFeatures int `json:"max_features"`
	// Seed drives the feature subsampling when MaxFeatures is active.
	Seed int64 `json:"seed"`
}

func (p Params) withDefaults() Params {
	if p.MaxDepth <= 0 {
		p.MaxDepth = 12
	}
	if p.MinSamplesLeaf <= 0 {
		p.MinSamplesLeaf = 1
	}
	return p
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	Feature   int     `json:"f"`           // split feature; -1 for leaf
	Threshold float64 `json:"t,omitempty"` // go left when x[f] <= t
	Left      *Node   `json:"l,omitempty"`
	Right     *Node   `json:"r,omitempty"`
	Value     float64 `json:"v"` // leaf prediction (mean of targets)
}

// Regressor is a fitted CART regression tree.
type Regressor struct {
	Params Params `json:"params"`
	Root   *Node  `json:"root"`
}

// NewRegressor returns an unfitted tree with the given parameters.
func NewRegressor(p Params) *Regressor { return &Regressor{Params: p} }

// Name implements ml.Regressor.
func (t *Regressor) Name() string { return "Decision Tree" }

// Fit implements ml.Regressor.
func (t *Regressor) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1
	}
	return t.FitWeighted(X, y, w)
}

// FitWeighted trains with per-sample weights (used by AdaBoost.R2).
func (t *Regressor) FitWeighted(X [][]float64, y, w []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	if len(w) != len(y) {
		return fmt.Errorf("tree: %d weights for %d samples", len(w), len(y))
	}
	p := t.Params.withDefaults()
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	g := &grower{X: X, y: y, w: w, p: p, rng: rand.New(rand.NewSource(p.Seed + 1))}
	t.Root = g.grow(idx, 0)
	return nil
}

// Predict implements ml.Regressor.
func (t *Regressor) Predict(x []float64) float64 {
	n := t.Root
	for n.Feature >= 0 {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// CheckWidth implements ml.WidthChecker: every split reads a column of the
// row and has both children.
func (t *Regressor) CheckWidth(width int) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("tree: no root node")
	}
	return checkNode(t.Root, width)
}

func checkNode(n *Node, width int) error {
	if n.Feature < 0 {
		return nil
	}
	if n.Feature >= width {
		return fmt.Errorf("tree: split on f = %d, model input has %d columns", n.Feature, width)
	}
	if n.Left == nil || n.Right == nil {
		return fmt.Errorf("tree: split on f = %d lacks a child", n.Feature)
	}
	if err := checkNode(n.Left, width); err != nil {
		return err
	}
	return checkNode(n.Right, width)
}

// Depth returns the height of the fitted tree (leaf-only tree has depth 0).
func (t *Regressor) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// NodeCount returns the number of nodes in the fitted tree.
func (t *Regressor) NodeCount() int { return count(t.Root) }

func count(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + count(n.Left) + count(n.Right)
}

type grower struct {
	X   [][]float64
	y   []float64
	w   []float64
	p   Params
	rng *rand.Rand
}

func (g *grower) grow(idx []int, d int) *Node {
	leaf := g.leaf(idx)
	if d >= g.p.MaxDepth || len(idx) < 2*g.p.MinSamplesLeaf {
		return leaf
	}
	f, thr, ok := g.bestSplit(idx)
	if !ok {
		return leaf
	}
	var left, right []int
	for _, i := range idx {
		if g.X[i][f] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.p.MinSamplesLeaf || len(right) < g.p.MinSamplesLeaf {
		return leaf
	}
	return &Node{
		Feature:   f,
		Threshold: thr,
		Left:      g.grow(left, d+1),
		Right:     g.grow(right, d+1),
		Value:     leaf.Value,
	}
}

func (g *grower) leaf(idx []int) *Node {
	var sw, swy float64
	for _, i := range idx {
		sw += g.w[i]
		swy += g.w[i] * g.y[i]
	}
	v := 0.0
	if sw > 0 {
		v = swy / sw
	}
	return &Node{Feature: -1, Value: v}
}

// bestSplit scans candidate features for the split maximising weighted
// variance reduction via the sorted prefix-sum sweep.
func (g *grower) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	nf := len(g.X[0])
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if g.p.MaxFeatures > 0 && g.p.MaxFeatures < nf {
		g.rng.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:g.p.MaxFeatures]
	}

	var totW, totWY, totWYY float64
	for _, i := range idx {
		w, yv := g.w[i], g.y[i]
		totW += w
		totWY += w * yv
		totWYY += w * yv * yv
	}
	if totW <= 0 {
		return 0, 0, false
	}
	baseSSE := totWYY - totWY*totWY/totW

	order := make([]int, len(idx))
	bestGain := 1e-12
	for _, f := range feats {
		copy(order, idx)
		slices.SortFunc(order, func(a, b int) int { return compareFloat(g.X[a][f], g.X[b][f]) })
		var lw, lwy, lwyy float64
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			w, yv := g.w[i], g.y[i]
			lw += w
			lwy += w * yv
			lwyy += w * yv * yv
			xi, xn := g.X[i][f], g.X[order[pos+1]][f]
			if xi == xn {
				continue // can't split between equal values
			}
			if pos+1 < g.p.MinSamplesLeaf || len(order)-pos-1 < g.p.MinSamplesLeaf {
				continue
			}
			rw := totW - lw
			if lw <= 0 || rw <= 0 {
				continue
			}
			lsse := lwyy - lwy*lwy/lw
			rwy := totWY - lwy
			rwyy := totWYY - lwyy
			rsse := rwyy - rwy*rwy/rw
			gain := baseSSE - lsse - rsse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = xi + (xn-xi)/2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

var _ ml.Regressor = (*Regressor)(nil)

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
