package preprocess

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// LOFScores computes the Local Outlier Factor (Breunig et al., 2000) of each
// row with k neighbours. A score near 1 means the point sits in a region of
// density similar to its neighbourhood; scores well above 1 flag local
// outliers that global statistical filters miss (§II-C).
//
// The implementation is the standard O(n²) exact algorithm: Euclidean
// distances, k-distance neighbourhoods, reachability distances, local
// reachability density, and the LOF ratio. The paper applies it after
// standardisation because the density estimate assumes comparable scales.
//
// Memory is O(n·k): each point's distances go into one reused buffer, the
// k-distance is found there by selection, and only the neighbourhood (the k
// nearest plus any ties at the k-distance) is kept, ordered by distance and
// then index. Sums run in that order, so the scores are those of a full
// sort of every distance list; where two neighbours tie exactly and are not
// duplicates of each other the order of a full sort is unspecified anyway.
func LOFScores(X [][]float64, k int) ([]float64, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("preprocess: LOF on empty data")
	}
	if k < 1 {
		return nil, fmt.Errorf("preprocess: LOF needs k >= 1, got %d", k)
	}
	if k >= n {
		k = n - 1
	}
	if k == 0 {
		// Single point: trivially not an outlier.
		return []float64{1}, nil
	}

	// k-distance neighbourhoods, point i's in nbs[start[i]:start[i+1]].
	nbs := make([]neighbour, 0, n*k)
	start := make([]int, n+1)
	dist := make([]float64, n)
	sel := make([]float64, n-1)
	for i := 0; i < n; i++ {
		for j := range X {
			dist[j] = euclid(X[i], X[j])
		}
		copy(sel, dist[:i])
		copy(sel[i:], dist[i+1:])
		kd := kthSmallest(sel, k-1)
		lo := len(nbs)
		for j, d := range dist {
			// !(d > kd) rather than d <= kd: a NaN k-distance (from a NaN
			// feature) must not leave the neighbourhood empty.
			if j != i && !(d > kd) {
				nbs = append(nbs, neighbour{j, d})
			}
		}
		slices.SortFunc(nbs[lo:], byDistThenIdx)
		start[i+1] = len(nbs)
	}
	hood := func(i int) []neighbour { return nbs[start[i]:start[i+1]] }

	kDist := make([]float64, n)
	for i := range kDist {
		h := hood(i)
		kDist[i] = h[len(h)-1].dist
	}

	// Local reachability density.
	lrd := make([]float64, n)
	for i := range lrd {
		var sum float64
		h := hood(i)
		for _, nb := range h {
			reach := nb.dist
			if kDist[nb.idx] > reach {
				reach = kDist[nb.idx]
			}
			sum += reach
		}
		if sum == 0 {
			lrd[i] = math.Inf(1) // duplicated points: infinite density
		} else {
			lrd[i] = float64(len(h)) / sum
		}
	}

	// LOF ratio.
	scores := make([]float64, n)
	for i := range scores {
		if math.IsInf(lrd[i], 1) {
			scores[i] = 1
			continue
		}
		var sum float64
		h := hood(i)
		for _, nb := range h {
			if math.IsInf(lrd[nb.idx], 1) {
				// Neighbour in a zero-radius cluster dominates the ratio;
				// treat as very dense.
				sum += 1e12
			} else {
				sum += lrd[nb.idx]
			}
		}
		scores[i] = sum / float64(len(h)) / lrd[i]
	}
	return scores, nil
}

type neighbour struct {
	idx  int
	dist float64
}

func byDistThenIdx(a, b neighbour) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// kthSmallest returns the element that would sit at index k if a were sorted
// ascending, reordering a. It is quickselect with a median-of-three pivot and
// a three-way partition (so runs of equal values cost one pass); after
// 2·log₂(n) rounds without converging it sorts what is left.
func kthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 12; budget-- {
		if budget == 0 {
			slices.Sort(a[lo:hi])
			return a[k]
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi-1]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		p := y
		// a[lo:lt] < p, a[lt:i] equal to (or unordered with) p, a[gt:hi] > p.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				gt--
				a[gt], a[i] = v, a[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(a[lo:hi])
	return a[k]
}

// FilterLOF returns the indices of rows whose LOF score is at most
// threshold. Typical settings: k=20, threshold=1.5.
func FilterLOF(X [][]float64, k int, threshold float64) ([]int, error) {
	scores, err := LOFScores(X, k)
	if err != nil {
		return nil, err
	}
	keep := make([]int, 0, len(X))
	for i, s := range scores {
		if s <= threshold {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

func euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
