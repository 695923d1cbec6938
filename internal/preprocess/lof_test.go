package preprocess

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// lofFullSort is the reference LOF: every point keeps its whole sorted
// distance list and the neighbourhood is its prefix up to the last tie at
// the k-th distance. LOFScores must reproduce its scores bit for bit.
func lofFullSort(X [][]float64, k int) []float64 {
	n := len(X)
	if k >= n {
		k = n - 1
	}
	if k == 0 {
		return []float64{1}
	}
	neighbours := make([][]neighbour, n)
	for i := 0; i < n; i++ {
		all := make([]neighbour, 0, n-1)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			all = append(all, neighbour{j, euclid(X[i], X[j])})
		}
		sort.Slice(all, func(a, b int) bool { return all[a].dist < all[b].dist })
		kd := all[k-1].dist
		cut := k
		for cut < len(all) && all[cut].dist == kd {
			cut++
		}
		neighbours[i] = all[:cut]
	}
	kDist := make([]float64, n)
	for i := range neighbours {
		kDist[i] = neighbours[i][len(neighbours[i])-1].dist
	}
	lrd := make([]float64, n)
	for i := range neighbours {
		var sum float64
		for _, nb := range neighbours[i] {
			reach := nb.dist
			if kDist[nb.idx] > reach {
				reach = kDist[nb.idx]
			}
			sum += reach
		}
		if sum == 0 {
			lrd[i] = math.Inf(1)
		} else {
			lrd[i] = float64(len(neighbours[i])) / sum
		}
	}
	scores := make([]float64, n)
	for i := range neighbours {
		if math.IsInf(lrd[i], 1) {
			scores[i] = 1
			continue
		}
		var sum float64
		for _, nb := range neighbours[i] {
			if math.IsInf(lrd[nb.idx], 1) {
				sum += 1e12
			} else {
				sum += lrd[nb.idx]
			}
		}
		scores[i] = sum / float64(len(neighbours[i])) / lrd[i]
	}
	return scores
}

func randomRows(rng *rand.Rand, n, d int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
	}
	return X
}

func assertSameScores(t *testing.T, label string, X [][]float64, k int) {
	t.Helper()
	got, err := LOFScores(X, k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := lofFullSort(X, k)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score[%d] = %v, full sort gives %v", label, i, got[i], want[i])
		}
	}
}

// TestLOFMatchesFullSort pins the selection-based neighbourhoods to the
// full-sort reference on point sets without exact distance ties between
// distinct points, and on sets with duplicated rows, whose ties carry equal
// reach distances.
func TestLOFMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{2, 5, 13, 40, 150, 300}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, n := range sizes {
		for _, d := range []int{1, 3, 8} {
			for _, k := range []int{1, 3, 10, 20, n} {
				X := randomRows(rng, n, d)
				assertSameScores(t, "distinct", X, k)

				// Duplicate about a third of the rows one to three times and
				// shuffle, so duplicates sit in each other's neighbourhoods
				// and tie at every other point's distance list.
				var dup [][]float64
				for _, row := range X {
					dup = append(dup, row)
					if rng.Intn(3) == 0 {
						for c := rng.Intn(3); c >= 0; c-- {
							dup = append(dup, append([]float64(nil), row...))
						}
					}
				}
				rng.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
				assertSameScores(t, "duplicated", dup, k)
			}
		}
	}
}

// TestLOFAllocBound pins the O(n·k) memory: the full-sort version retains
// n·(n−1) neighbours (≈ 64 MB at n = 2000).
func TestLOFAllocBound(t *testing.T) {
	X := randomRows(rand.New(rand.NewSource(3)), 2000, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LOFScores(X, 20); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Errorf("LOFScores(n=2000, k=20) allocated %d bytes, want < 8 MiB", got)
	}
}

func TestKthSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 300; n += 1 + n/10 {
		for _, levels := range []int{2, 7, 1 << 30} { // tie-heavy to distinct
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(levels))
			}
			sorted := slices.Clone(a)
			slices.Sort(sorted)
			for k := 0; k < n; k++ {
				b := slices.Clone(a)
				if got := kthSmallest(b, k); got != sorted[k] {
					t.Fatalf("n=%d levels=%d: kthSmallest(k=%d) = %v, want %v", n, levels, k, got, sorted[k])
				}
			}
		}
	}
	// Sorted, reversed and constant inputs.
	for _, a := range [][]float64{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
		{20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}} {
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		for k := range a {
			if got := kthSmallest(slices.Clone(a), k); got != sorted[k] {
				t.Fatalf("%v: kthSmallest(k=%d) = %v, want %v", a, k, got, sorted[k])
			}
		}
	}
}

// TestLOFNaNRow: a row with a NaN feature is at NaN distance from every
// other row, so its k-distance is NaN; its neighbourhood must not come out
// empty (an index panic).
func TestLOFNaNRow(t *testing.T) {
	X := randomRows(rand.New(rand.NewSource(9)), 50, 2)
	X[7][1] = math.NaN()
	if _, err := LOFScores(X, 5); err != nil {
		t.Fatal(err)
	}
}
