package obs

import (
	"math"
	"math/rand"
	"testing"
)

func momentsClose(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
}

func TestMomentsBasic(t *testing.T) {
	var m Moments
	if m.Count() != 0 || m.Mean() != 0 || m.Var() != 0 {
		t.Fatalf("zero value not empty: %+v", m)
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.Count() != 8 {
		t.Fatalf("Count = %d, want 8", m.Count())
	}
	momentsClose(t, "Mean", m.Mean(), 5)
	momentsClose(t, "Var", m.Var(), 4)
	momentsClose(t, "Std", m.Std(), 2)
	momentsClose(t, "Min", m.Summary().Min, 2)
	momentsClose(t, "Max", m.Summary().Max, 9)
}

// TestMomentsMerge pins the merge invariant replay relies on: merging
// per-shard aggregators equals aggregating the concatenated stream.
func TestMomentsMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	var whole Moments
	for _, x := range xs {
		whole.Add(x)
	}
	for _, split := range []int{0, 1, 500, 999, 1000} {
		var a, b Moments
		for _, x := range xs[:split] {
			a.Add(x)
		}
		for _, x := range xs[split:] {
			b.Add(x)
		}
		a.Merge(b)
		if a.Count() != whole.Count() {
			t.Fatalf("split %d: Count = %d, want %d", split, a.Count(), whole.Count())
		}
		momentsClose(t, "merged Mean", a.Mean(), whole.Mean())
		momentsClose(t, "merged Var", a.Var(), whole.Var())
		momentsClose(t, "merged Min", a.Summary().Min, whole.Summary().Min)
		momentsClose(t, "merged Max", a.Summary().Max, whole.Summary().Max)
	}
}
