package obs

import (
	"math"
	"sync"
	"testing"
)

// TestBucketIndexRoundTrip checks that every bucket's upper bound maps
// back into the same bucket and bounds are strictly increasing — the
// invariants exposition and quantile estimation rely on.
func TestBucketIndexRoundTrip(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < histNumBuckets; i++ {
		ub := bucketUpper(i)
		if ub <= prev {
			t.Fatalf("bucket %d upper bound %d not above previous %d", i, ub, prev)
		}
		if got := bucketIndex(ub); got != i {
			t.Fatalf("bucketIndex(bucketUpper(%d)=%d) = %d", i, ub, got)
		}
		// The value one past the bound belongs to the next bucket.
		if ub < math.MaxInt64 {
			if got := bucketIndex(ub + 1); got != i+1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d", ub+1, got, i+1)
			}
		}
		prev = ub
	}
	if got := bucketIndex(math.MaxInt64); got != histNumBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", got, histNumBuckets-1)
	}
}

// TestHistogramQuantileError checks the documented 12.5% relative error
// bound on quantile estimates.
func TestHistogramQuantileError(t *testing.T) {
	h := NewHistogram(1)
	// Uniform 1..100000: exact quantiles are q*100000.
	for v := int64(1); v <= 100000; v++ {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		got := float64(h.Quantile(q))
		want := q * 100000
		if got < want || got > want*1.125+1 {
			t.Errorf("Quantile(%.2f) = %.0f, want within [%.0f, %.0f]", q, got, want, want*1.125)
		}
	}
	if h.Quantile(0) < 1 {
		t.Errorf("Quantile(0) = %d, want >= 1", h.Quantile(0))
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	h := NewHistogram(1)
	for i := 0; i < 5; i++ {
		h.Observe(3)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("median of constant 3 = %d", got)
	}
	if h.Count() != 5 || h.Sum() != 15 {
		t.Errorf("count/sum = %d/%d, want 5/15", h.Count(), h.Sum())
	}
	h.Observe(-7) // clamps to 0
	if got := h.Quantile(0); got != 0 {
		t.Errorf("min after negative observation = %d, want 0", got)
	}
}

// TestObserveZeroAlloc pins the zero-allocation guarantee of the hot
// path: Observe must not allocate.
func TestObserveZeroAlloc(t *testing.T) {
	h := NewHistogram(1e-9)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123456) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestHistogramConcurrent hammers Observe/Quantile from many goroutines
// (meaningful under -race) and checks the final tallies.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(1)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(seed*1000 + int64(i))
				if i%512 == 0 {
					_ = h.Quantile(0.99)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
}
