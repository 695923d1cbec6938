package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDescribe(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	s := Describe(xs)
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Describe = %+v", s)
	}
	if !near(s.Std, math.Sqrt(2), 1e-12) {
		t.Errorf("Std = %v, want sqrt(2)", s.Std)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestDescribeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Describe(empty) should panic")
		}
	}()
	Describe(nil)
}

// TestPercentileInterpolation pins the quartile rule Describe uses: linear
// interpolation between closest ranks.
func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{10, 20}
	if got := percentileSorted(xs, 0.5); got != 15 {
		t.Errorf("P50 of {10,20} = %v, want 15", got)
	}
	if got := percentileSorted([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of singleton = %v, want 7", got)
	}
	if got := percentileSorted(xs, 0); got != 10 {
		t.Errorf("P0 = %v, want 10", got)
	}
	if got := percentileSorted(xs, 1); got != 20 {
		t.Errorf("P100 = %v, want 20", got)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0, 0.5, 1, 1.5, 2, 3.999, 4}, 4, 0, 4)
	want := []int{2, 2, 1, 2} // 4.0 lands in last bin; 3.999 too
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("bin %d = %d, want %d (all: %v)", i, h.Counts[i], c, h.Counts)
		}
	}
	// Out-of-range values are dropped.
	h2 := NewHistogram([]float64{-1, 5}, 4, 0, 4)
	for _, c := range h2.Counts {
		if c != 0 {
			t.Errorf("out-of-range values binned: %v", h2.Counts)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram([]float64{1, 1, 3}, 2, 0, 4)
	out := h.Render(10)
	if !strings.Contains(out, "##########") {
		t.Errorf("tallest bin should render full width:\n%s", out)
	}
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) != 2 {
		t.Errorf("expected 2 lines:\n%s", out)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Correlation(xs, ys); !near(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(xs, neg); !near(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := Correlation(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant series correlation = %v, want 0", got)
	}
}

func TestSkewness(t *testing.T) {
	sym := []float64{1, 2, 3, 4, 5}
	if got := Skewness(sym); !near(got, 0, 1e-12) {
		t.Errorf("symmetric skewness = %v", got)
	}
	right := []float64{1, 1, 1, 1, 100}
	if Skewness(right) <= 1 {
		t.Errorf("right-skewed data should have skewness > 1, got %v", Skewness(right))
	}
}

// Property: Describe invariants — Min <= P25 <= Median <= P75 <= Max,
// and Mean within [Min, Max].
func TestDescribeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Describe(xs)
		tol := 1e-9 * (math.Abs(s.Min) + math.Abs(s.Max) + 1)
		return s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
			s.P75 <= s.Max && s.Mean >= s.Min-tol && s.Mean <= s.Max+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: histogram conserves in-range counts.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []float64, nb uint8) bool {
		n := 1 + int(nb%16)
		xs := make([]float64, 0, len(raw))
		inRange := 0
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			v = math.Mod(math.Abs(v), 20) - 5 // spread around [-5, 15)
			xs = append(xs, v)
			if v >= 0 && v <= 10 {
				inRange++
			}
		}
		h := NewHistogram(xs, n, 0, 10)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		return total == inRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := float64(p1%101) / 100
		b := float64(p2%101) / 100
		if a > b {
			a, b = b, a
		}
		sort.Float64s(xs)
		return percentileSorted(xs, a) <= percentileSorted(xs, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStdSortedInvariance(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if Std(xs) != Std(sorted) {
		t.Error("Std should be order-invariant")
	}
}
