package boost

import (
	"container/heap"
	"sort"

	"repro/internal/ml"
)

// LGBMParams configure the LightGBM-style booster. Zero values pick defaults.
type LGBMParams struct {
	NRounds      int     `json:"n_rounds"`       // default 150
	MaxLeaves    int     `json:"max_leaves"`     // default 31
	MaxBins      int     `json:"max_bins"`       // default 64
	LearningRate float64 `json:"learning_rate"`  // default 0.1
	Lambda       float64 `json:"lambda"`         // L2 on leaf weights, default 1
	MinLeafCount int     `json:"min_leaf_count"` // default 5
}

func (p LGBMParams) withDefaults() LGBMParams {
	if p.NRounds <= 0 {
		p.NRounds = 150
	}
	if p.MaxLeaves <= 1 {
		p.MaxLeaves = 31
	}
	if p.MaxBins < 2 {
		p.MaxBins = 64
	}
	if p.LearningRate <= 0 {
		p.LearningRate = 0.1
	}
	if p.Lambda <= 0 {
		p.Lambda = 1
	}
	if p.MinLeafCount <= 0 {
		p.MinLeafCount = 5
	}
	return p
}

// LGBM is a histogram-based gradient booster with leaf-wise (best-first)
// tree growth — the two structural ideas of LightGBM. Features are
// pre-quantised into MaxBins quantile bins; split finding scans histograms
// instead of sorted values.
type LGBM struct {
	Params LGBMParams `json:"params"`
	Base   float64    `json:"base"`
	// BinEdges[f] holds the upper edge of each bin for feature f.
	BinEdges [][]float64 `json:"bin_edges"`
	Trees    [][]xgbNode `json:"trees"` // thresholds are bin indices
}

// NewLGBM returns an unfitted booster.
func NewLGBM(p LGBMParams) *LGBM { return &LGBM{Params: p} }

// Name implements ml.Regressor.
func (l *LGBM) Name() string { return "LightGBM" }

// Fit implements ml.Regressor.
func (l *LGBM) Fit(X [][]float64, y []float64) error {
	if err := ml.ValidateXY(X, y); err != nil {
		return err
	}
	p := l.Params.withDefaults()
	n, d := len(y), len(X[0])

	// Quantile binning.
	l.BinEdges = make([][]float64, d)
	binned := make([][]uint16, n)
	for i := range binned {
		binned[i] = make([]uint16, d)
	}
	vals := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		edges := quantileEdges(sorted, p.MaxBins)
		l.BinEdges[f] = edges
		for i := 0; i < n; i++ {
			binned[i][f] = uint16(binOf(edges, X[i][f]))
		}
	}

	l.Base = 0
	for _, v := range y {
		l.Base += v
	}
	l.Base /= float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = l.Base
	}
	grad := make([]float64, n)

	l.Trees = l.Trees[:0]
	for round := 0; round < p.NRounds; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i]
		}
		nodes := l.growLeafWise(binned, grad, p)
		l.Trees = append(l.Trees, nodes)
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * evalBinnedTree(nodes, binned[i])
		}
	}
	return nil
}

// Predict implements ml.Regressor, binning the input on the fly.
func (l *LGBM) Predict(v []float64) float64 {
	p := l.Params.withDefaults()
	// Predict sits on the serving hot path (one call per ranked candidate).
	// Feature rows are narrow — Table II has 17 columns — so a stack-backed
	// array keeps the bin buffer off the heap; the make fallback only fires
	// for rows wider than anything the project produces.
	var binsArr [maxStackWidth]uint16
	var bins []uint16
	if len(v) <= len(binsArr) {
		bins = binsArr[:len(v)]
	} else {
		bins = make([]uint16, len(v))
	}
	for f := range v {
		bins[f] = uint16(binOf(l.BinEdges[f], v[f]))
	}
	s := l.Base
	for _, t := range l.Trees {
		s += float64(p.LearningRate * evalBinnedTree(t, bins)) // rounded before the add, as in XGB.Predict
	}
	return s
}

// maxStackWidth is the widest row whose bins Predict and PredictRows keep on
// the stack.
const maxStackWidth = 32

func evalBinnedTree(nodes []xgbNode, bins []uint16) float64 {
	i := 0
	for nodes[i].Feature >= 0 {
		if float64(bins[nodes[i].Feature]) <= nodes[i].Threshold {
			i = nodes[i].Left
		} else {
			i = nodes[i].Right
		}
	}
	return nodes[i].Value
}

// leafCandidate is a grown-but-unsplit leaf in the best-first queue.
type leafCandidate struct {
	members []int
	gain    float64
	feature int
	bin     int
	nodeIdx int
	g, h    float64
}

type leafHeap []*leafCandidate

func (h leafHeap) Len() int            { return len(h) }
func (h leafHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h leafHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x interface{}) { *h = append(*h, x.(*leafCandidate)) }
func (h *leafHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// growLeafWise builds one tree by repeatedly splitting the leaf with the
// highest gain until MaxLeaves is reached or no leaf has positive gain.
func (l *LGBM) growLeafWise(binned [][]uint16, grad []float64, p LGBMParams) []xgbNode {
	n := len(binned)
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var nodes []xgbNode

	mkLeaf := func(g, h float64) int {
		v := 0.0
		if h+p.Lambda > 0 {
			v = -g / (h + p.Lambda)
		}
		nodes = append(nodes, xgbNode{Feature: -1, Value: v})
		return len(nodes) - 1
	}

	var g0, h0 float64
	for _, i := range all {
		g0 += grad[i]
		h0++
	}
	root := mkLeaf(g0, h0)

	h := &leafHeap{}
	if cand := l.bestHistSplit(binned, grad, all, g0, h0, p); cand != nil {
		cand.nodeIdx = root
		heap.Push(h, cand)
	}

	leaves := 1
	for h.Len() > 0 && leaves < p.MaxLeaves {
		c := heap.Pop(h).(*leafCandidate)
		// Partition members.
		var left, right []int
		var lg, lh float64
		for _, i := range c.members {
			if int(binned[i][c.feature]) <= c.bin {
				left = append(left, i)
				lg += grad[i]
				lh++
			} else {
				right = append(right, i)
			}
		}
		rg, rh := c.g-lg, c.h-lh
		// Convert the leaf into an internal node.
		li := mkLeaf(lg, lh)
		ri := mkLeaf(rg, rh)
		nodes[c.nodeIdx] = xgbNode{Feature: c.feature, Threshold: float64(c.bin), Left: li, Right: ri}
		leaves++

		if lc := l.bestHistSplit(binned, grad, left, lg, lh, p); lc != nil {
			lc.nodeIdx = li
			heap.Push(h, lc)
		}
		if rc := l.bestHistSplit(binned, grad, right, rg, rh, p); rc != nil {
			rc.nodeIdx = ri
			heap.Push(h, rc)
		}
	}
	return nodes
}

// bestHistSplit scans per-feature gradient histograms for the best split of
// the member set, or nil when no admissible split improves the objective.
func (l *LGBM) bestHistSplit(binned [][]uint16, grad []float64, members []int, g, h float64, p LGBMParams) *leafCandidate {
	if len(members) < 2*p.MinLeafCount {
		return nil
	}
	d := len(binned[0])
	base := g * g / (h + p.Lambda)
	best := &leafCandidate{members: members, g: g, h: h, gain: 1e-12, feature: -1}
	histG := make([]float64, p.MaxBins)
	histC := make([]float64, p.MaxBins)
	for f := 0; f < d; f++ {
		for b := range histG {
			histG[b], histC[b] = 0, 0
		}
		maxBin := 0
		for _, i := range members {
			b := int(binned[i][f])
			histG[b] += grad[i]
			histC[b]++
			if b > maxBin {
				maxBin = b
			}
		}
		var lg, lh float64
		for b := 0; b < maxBin; b++ {
			lg += histG[b]
			lh += histC[b]
			if lh < float64(p.MinLeafCount) || h-lh < float64(p.MinLeafCount) {
				continue
			}
			rg, rh := g-lg, h-lh
			gain := 0.5 * (lg*lg/(lh+p.Lambda) + rg*rg/(rh+p.Lambda) - base)
			if gain > best.gain {
				best.gain = gain
				best.feature = f
				best.bin = b
			}
		}
	}
	if best.feature < 0 {
		return nil
	}
	return best
}

// quantileEdges returns up to maxBins-1 distinct interior bin edges from the
// sorted values; binOf assigns v to the first bin whose edge is >= v.
func quantileEdges(sorted []float64, maxBins int) []float64 {
	n := len(sorted)
	var edges []float64
	for b := 1; b < maxBins; b++ {
		q := sorted[(n-1)*b/maxBins]
		if len(edges) == 0 || q > edges[len(edges)-1] {
			edges = append(edges, q)
		}
	}
	return edges
}

// binOf returns the bin index of v given interior edges (values <= edge[i]
// fall in bin i; values above every edge go to the last bin).
func binOf(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= edges[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

var _ ml.Regressor = (*LGBM)(nil)
