package boost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fitFullScan is XGB.Fit as it was before the builder kept per-node sorted
// ranges: every node walks the whole of every pre-sorted column and skips
// the rows that are not its members. It is the oracle the range builder
// must match bit for bit.
func fitFullScan(p XGBParams, X [][]float64, y []float64) *XGB {
	x := &XGB{Params: p}
	p = p.withDefaults()
	n, d := len(y), len(X[0])
	for _, v := range y {
		x.Base += v
	}
	x.Base /= float64(n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = x.Base
	}
	grad := make([]float64, n)
	orders := make([][]int, d)
	for f := 0; f < d; f++ {
		ord := make([]int, n)
		for i := range ord {
			ord[i] = i
		}
		slices.SortFunc(ord, func(a, b int) int { return compareFloat(X[a][f], X[b][f]) })
		orders[f] = ord
	}
	rng := newSplitMix(uint64(p.Seed) + 0x1234)
	for round := 0; round < p.NRounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i]
		}
		members := make([]bool, n)
		for i := range members {
			members[i] = p.Subsample >= 1 || rng.float64() < p.Subsample
		}
		b := &scanBuilder{X: X, grad: grad, orders: orders, p: p}
		b.build(members, 0)
		x.Trees = append(x.Trees, b.nodes)
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * evalTree(b.nodes, X[i])
		}
	}
	return x
}

type scanBuilder struct {
	X      [][]float64
	grad   []float64
	orders [][]int
	p      XGBParams
	nodes  []xgbNode
}

func (b *scanBuilder) build(members []bool, depth int) int {
	var g, h float64
	cnt := 0
	for i, m := range members {
		if m {
			g += b.grad[i]
			h++
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
	baseScore := g * g / (h + b.p.Lambda)
	bestGain := b.p.Gamma + 1e-12
	bestF, bestThr := -1, 0.0
	for f := range b.orders {
		var lg, lh float64
		prevX := math.Inf(-1)
		prevSeen := false
		for _, i := range b.orders[f] {
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
		if m {
			leftM[i] = b.X[i][bestF] <= bestThr
			rightM[i] = !leftM[i]
		}
	}
	self := len(b.nodes)
	b.nodes = append(b.nodes, xgbNode{Feature: bestF, Threshold: bestThr})
	b.nodes[self].Left = b.build(leftM, depth+1)
	b.nodes[self].Right = b.build(rightM, depth+1)
	return self
}

// diffXGB returns "" when a and b hold the same base and trees, thresholds
// and leaf values compared as bits, else the first difference.
func diffXGB(a, b *XGB) string {
	if math.Float64bits(a.Base) != math.Float64bits(b.Base) {
		return fmt.Sprintf("base %v vs %v", a.Base, b.Base)
	}
	if len(a.Trees) != len(b.Trees) {
		return fmt.Sprintf("%d trees vs %d", len(a.Trees), len(b.Trees))
	}
	for t := range a.Trees {
		if len(a.Trees[t]) != len(b.Trees[t]) {
			return fmt.Sprintf("tree %d: %d nodes vs %d", t, len(a.Trees[t]), len(b.Trees[t]))
		}
		for i, u := range a.Trees[t] {
			v := b.Trees[t][i]
			if u.Feature != v.Feature || u.Left != v.Left || u.Right != v.Right ||
				math.Float64bits(u.Threshold) != math.Float64bits(v.Threshold) ||
				math.Float64bits(u.Value) != math.Float64bits(v.Value) {
				return fmt.Sprintf("tree %d node %d: %+v vs %+v", t, i, u, v)
			}
		}
	}
	return ""
}

// tieRows draws n rows of d features from only levels distinct values
// each, every third row a copy of an earlier one, and a target of few
// levels: ties in every column and in the gradients.
func tieRows(n, d, levels int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i > 0 && i%3 == 0 {
			j := rng.Intn(i)
			X[i], y[i] = X[j], y[j]
			continue
		}
		row := make([]float64, d)
		for f := range row {
			row[f] = 0.1 * float64(rng.Intn(levels))
		}
		X[i] = row
		y[i] = float64(rng.Intn(4)) + row[0] - row[1]*row[2]
	}
	return X, y
}

func TestXGBMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		X, y := tieRows(60+int(seed)*29, 5, 2+int(seed), seed)
		for depth := 1; depth <= 8; depth++ {
			for _, p := range []XGBParams{
				{NRounds: 12, MaxDepth: depth},
				{NRounds: 12, MaxDepth: depth, Subsample: 0.7, Seed: seed},
				{NRounds: 12, MaxDepth: depth, MinChildWeight: 3, Subsample: 0.5, Seed: seed},
				{NRounds: 12, MaxDepth: depth, MinChildWeight: 5, Lambda: 0.5, Gamma: 0.01},
			} {
				got := NewXGB(p)
				if err := got.Fit(X, y); err != nil {
					t.Fatal(err)
				}
				if d := diffXGB(got, fitFullScan(p, X, y)); d != "" {
					t.Fatalf("seed %d params %+v: %s", seed, p, d)
				}
			}
		}
	}
}
