package tree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// indexGrower is the grower as it was before bestSplit sorted (value, row)
// pairs: every node sorts a fresh slice of row indices through X, with a
// fresh feature list. It is the oracle the pair sort must match bit for
// bit.
type indexGrower struct {
	X   [][]float64
	y   []float64
	w   []float64
	p   Params
	rng *rand.Rand
}

// fitIndexSort fits the oracle tree with FitWeighted's parameters.
func fitIndexSort(p Params, X [][]float64, y, w []float64) *Node {
	p = p.withDefaults()
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	g := &indexGrower{X: X, y: y, w: w, p: p, rng: rand.New(rand.NewSource(p.Seed + 1))}
	return g.grow(idx, 0)
}

func (g *indexGrower) grow(idx []int, d int) *Node {
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

func (g *indexGrower) leaf(idx []int) *Node {
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

func (g *indexGrower) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
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
				continue
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

// diffTrees returns "" when a and b have the same shape, features and
// leaf/threshold bits, else the path of the first difference.
func diffTrees(a, b *Node, path string) string {
	switch {
	case (a == nil) != (b == nil):
		return path + ": one side has no node"
	case a == nil:
		return ""
	case a.Feature != b.Feature ||
		math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) ||
		math.Float64bits(a.Value) != math.Float64bits(b.Value):
		return fmt.Sprintf("%s: (f %d, t %v, v %v) vs (f %d, t %v, v %v)",
			path, a.Feature, a.Threshold, a.Value, b.Feature, b.Threshold, b.Value)
	}
	if d := diffTrees(a.Left, b.Left, path+"L"); d != "" {
		return d
	}
	return diffTrees(a.Right, b.Right, path+"R")
}

// tieData draws n rows of d features from only levels distinct values each,
// with every fourth row a copy of an earlier one, and a noisy target. Two
// more columns split the same rows as another one: log(1+x) of the first
// (the models see both m and log m) and a coarsening of the second, whose
// splits are splits of the second with other ties. The gains of such twins
// differ only by the rounding of prefix sums taken in tie order, so the
// winning feature moves if any tie lands elsewhere.
func tieData(n, d, levels int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i > 0 && i%4 == 0 {
			j := rng.Intn(i)
			X[i], y[i] = X[j], y[j]
			continue
		}
		row := make([]float64, d+2)
		for f := 0; f < d; f++ {
			row[f] = 0.1 * float64(rng.Intn(levels))
		}
		row[d] = math.Log1p(row[0])
		row[d+1] = math.Floor(row[1] * 5)
		X[i] = row
		y[i] = float64(rng.Intn(3)) + row[1] - 0.5*row[0] + 0.1*rng.NormFloat64()
	}
	return X, y
}

func TestPairSortMatchesIndexSort(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := 40 + int(seed)*23
		X, y := tieData(n, 4, 2+int(seed)%5, seed)
		rng := rand.New(rand.NewSource(seed))
		unit := make([]float64, n)
		skewed := make([]float64, n)
		for i := range unit {
			unit[i] = 1
			skewed[i] = rng.ExpFloat64() / float64(n)
		}
		for _, p := range []Params{
			{},
			{MaxDepth: 3},
			{MinSamplesLeaf: 3},
			{MaxFeatures: 2, Seed: seed},
			{MaxDepth: 16, MinSamplesLeaf: 2, MaxFeatures: 2, Seed: seed},
		} {
			for wi, w := range [][]float64{unit, skewed} {
				tr := NewRegressor(p)
				if err := tr.FitWeighted(X, y, w); err != nil {
					t.Fatal(err)
				}
				if d := diffTrees(tr.Root, fitIndexSort(p, X, y, w), "root"); d != "" {
					t.Fatalf("seed %d params %+v weights %d: %s", seed, p, wi, d)
				}
			}
		}
	}
}
