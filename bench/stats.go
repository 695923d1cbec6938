package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// typical is the benchmark's latency figure: the 10th percentile of the
// samples — per class (sample i is of class i % classes), averaged over the
// classes. On the shared reference box neighbours slow a varying share of
// the samples, in phases from microseconds to minutes; the fast decile is
// what the code does undisturbed and repeats run to run two to three times
// closer than the median does (README, "Why the tenth percentile").
func typical(samples []float64, classes int) float64 {
	if len(samples) < classes {
		return 0
	}
	var sum float64
	class := make([]float64, 0, len(samples)/classes+1)
	for c := 0; c < classes; c++ {
		class = class[:0]
		for i := c; i < len(samples); i += classes {
			class = append(class, samples[i])
		}
		sort.Float64s(class)
		sum += class[len(class)/10]
	}
	return sum / float64(classes)
}

// groupMeans averages xs in consecutive groups of size, dropping a short
// last group: per-operation times become per-lap samples, like those of an
// untraced run.
func groupMeans(xs []float64, size int) []float64 {
	if size <= 1 {
		return xs
	}
	out := make([]float64, 0, len(xs)/size)
	for ; len(xs) >= size; xs = xs[size:] {
		var sum float64
		for _, x := range xs[:size] {
			sum += x
		}
		out = append(out, sum/float64(size))
	}
	return out
}

// tail returns the highest of the percentiles 99.9, 99, 95, 90 that still
// has at least ten samples beyond it, with its value; pct is 0 when even
// p90 has fewer (under 100 samples). xs must be sorted ascending.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	for _, beyondPerMille := range []int{1, 10, 50, 100} {
		if beyond := n * beyondPerMille / 1000; beyond >= 10 {
			return 100 - float64(beyondPerMille)/10, xs[n-1-beyond]
		}
	}
	return 0, 0
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread the acceptance rule uses
// (quartiles by the exclusive method, as Python's statistics.quantiles).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
