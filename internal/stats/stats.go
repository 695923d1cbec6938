// Package stats provides the descriptive statistics, percentiles and
// histogram utilities used throughout the experiment harness (Tables V/VI
// speedup statistics, Figs 1/8 optimal-thread histograms, Fig 9/10 binned
// heatmaps).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds the descriptive statistics reported in Tables V and VI.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Describe computes a Summary of xs. It panics on empty input.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Describe of empty slice")
	}
	s := Summary{N: len(xs)}
	s.Mean = Mean(xs)
	s.Std = Std(xs)
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.P25 = percentileSorted(sorted, 0.25)
	s.Median = percentileSorted(sorted, 0.50)
	s.P75 = percentileSorted(sorted, 0.75)
	return s
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width binned histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	// Overflow counts values exactly equal to Hi (closed top edge), matching
	// matplotlib's behaviour of including the right edge in the last bin.
}

// NewHistogram bins xs into n equal-width bins spanning [lo, hi]. Values
// equal to hi land in the last bin; values outside [lo, hi] are dropped.
func NewHistogram(xs []float64, n int, lo, hi float64) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bin")
	}
	if hi <= lo {
		panic("stats: histogram hi must exceed lo")
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		if x < lo || x > hi {
			continue
		}
		b := int((x - lo) / w)
		if b >= n {
			b = n - 1
		}
		h.Counts[b]++
	}
	return h
}

// Render draws the histogram as an ASCII bar chart, one bin per line, with
// bars scaled so the tallest bin spans width characters.
func (h *Histogram) Render(width int) string {
	max := 0
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		bar := 0
		if max > 0 {
			bar = c * width / max
		}
		fmt.Fprintf(&b, "%10.0f-%-10.0f |%-*s %d\n", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w, width, strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Correlation returns the Pearson correlation coefficient of xs and ys.
// It panics if lengths differ; returns 0 when either series is constant.
func Correlation(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Correlation length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Skewness returns the sample skewness (Fisher-Pearson, biased) of xs; the
// paper's feature distributions are heavily right-skewed before Yeo-Johnson.
func Skewness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(xs))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
