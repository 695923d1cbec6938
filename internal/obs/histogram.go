package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free log-linear (HDR-style) latency histogram over
// non-negative int64 observations. Buckets are powers of two subdivided
// into 2^histSubBits linear sub-buckets, so the relative quantile error
// is bounded by 1/2^histSubBits (12.5%) across the whole int64 range with
// a fixed ~4 KB footprint and no allocation ever — Observe is a handful
// of atomic adds on a fixed array.
type Histogram struct {
	// scale converts raw observed units into exposition/quantile-report
	// units (1e-9: nanoseconds in, seconds out; 1: raw units).
	scale float64

	count   atomic.Int64
	sum     atomic.Int64 // raw units; scaled at exposition
	buckets [histNumBuckets]atomic.Int64
}

const (
	// histSubBits is the log2 of the linear sub-buckets per power-of-two
	// range: 8 sub-buckets bound the relative error at 12.5%.
	histSubBits  = 3
	histSubCount = 1 << histSubBits

	// histNumBuckets covers 0 through math.MaxInt64: values below
	// histSubCount get exact unit buckets, every power-of-two range above
	// gets histSubCount sub-buckets, up to exponent 62.
	histNumBuckets = (63-histSubBits)*histSubCount + histSubCount
)

// NewHistogram returns a histogram whose exposition values are raw
// observations multiplied by scale (use 1e-9 for nanosecond observations
// exposed as seconds, 1 for dimensionless values). A non-positive scale
// selects 1.
func NewHistogram(scale float64) *Histogram {
	if scale <= 0 {
		scale = 1
	}
	return &Histogram{scale: scale}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> (uint(exp) - histSubBits)) & (histSubCount - 1))
	return (exp-histSubBits)*histSubCount + sub + histSubCount
}

// bucketUpper returns the largest value mapping to bucket i — the
// inclusive upper bound used as the Prometheus `le` boundary.
func bucketUpper(i int) int64 {
	if i < histSubCount {
		return int64(i)
	}
	exp := uint(i/histSubCount - 1 + histSubBits)
	sub := int64(i % histSubCount)
	width := int64(1) << (exp - histSubBits)
	return int64(1)<<exp + (sub+1)*width - 1
}

// Observe records one value. Negative values clamp to zero. Safe for
// concurrent use; allocates nothing.
//
//adsala:zeroalloc
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveSince records the elapsed nanoseconds since start — the common
// latency-instrumentation call.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Nanoseconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations in raw units.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in raw units: the upper
// bound of the bucket where the cumulative count crosses q·count. The
// estimate is exact for values below histSubCount and within 12.5% above.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= target {
			return bucketUpper(i)
		}
	}
	return bucketUpper(histNumBuckets - 1)
}

// Mean returns the mean observation in exposition units (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) * h.scale / float64(n)
}

// Tails is the JSON form of a latency histogram in exposition units
// (seconds): count, mean and three upper quantiles. The online /drift
// report and the offline adsala-replay report both carry it, so the two
// diff cleanly.
type Tails struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Tails returns the histogram's JSON summary.
func (h *Histogram) Tails() Tails {
	quantile := func(q float64) float64 { return float64(h.Quantile(q)) * h.scale }
	return Tails{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   quantile(0.50),
		P90:   quantile(0.90),
		P99:   quantile(0.99),
	}
}

// snapshotBuckets copies the non-empty buckets as (upperBound, count)
// pairs in ascending bound order — the exposition and test surface.
func (h *Histogram) snapshotBuckets() (bounds []int64, counts []int64) {
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			bounds = append(bounds, bucketUpper(i))
			counts = append(counts, n)
		}
	}
	return bounds, counts
}
