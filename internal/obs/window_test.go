package obs

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWindowedMomentsMergeEqualsWhole pins the merge contract: observations
// spread across every sub-window of one live window aggregate, via the
// per-slot reconstruction and Moments.Merge, to the same statistics as one
// flat Moments over the same values — up to floating-point rounding.
func TestWindowedMomentsMergeEqualsWhole(t *testing.T) {
	const slots = 8
	w := NewWindowedMoments(8*time.Second, slots)
	rng := rand.New(rand.NewSource(7))
	var whole Moments
	// Timestamps walk forward through all 8 sub-windows (no eviction:
	// everything stays inside the window ending at the last timestamp).
	var last int64
	for i := 0; i < 4000; i++ {
		ts := int64(i) * (8 * int64(time.Second)) / 4000
		x := rng.NormFloat64()*3 + 1.5
		w.Add(ts, x)
		whole.Add(x)
		last = ts
	}
	got := w.MomentsAt(last)
	if got.Count() != whole.Count() {
		t.Fatalf("count: got %d, want %d", got.Count(), whole.Count())
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("%s: got %v, want %v", name, got, want)
		}
	}
	approx("mean", got.Mean(), whole.Mean())
	approx("std", got.Std(), whole.Std())
	approx("min", got.Summary().Min, whole.Summary().Min)
	approx("max", got.Summary().Max, whole.Summary().Max)
}

// TestWindowedMomentsEviction pins eviction: once timestamps advance past
// the window, old sub-windows drop out of the aggregate — first partially
// (slot by slot), then entirely.
func TestWindowedMomentsEviction(t *testing.T) {
	slot := int64(time.Second)
	w := NewWindowedMoments(4*time.Second, 4)

	// One observation per sub-window: values 1, 2, 3, 4 at t = 0s..3s.
	for i := 0; i < 4; i++ {
		w.Add(int64(i)*slot, float64(i+1))
	}
	m := w.MomentsAt(3 * slot)
	if m.Count() != 4 || m.Summary().Min != 1 || m.Summary().Max != 4 {
		t.Fatalf("pre-eviction: count=%d min=%v max=%v, want 4/1/4", m.Count(), m.Summary().Min, m.Summary().Max)
	}

	// Advance the read point one sub-window: the t=0 slot (value 1) expires.
	m = w.MomentsAt(4 * slot)
	if m.Count() != 3 || m.Summary().Min != 2 {
		t.Fatalf("after one slot expiry: count=%d min=%v, want 3/2", m.Count(), m.Summary().Min)
	}

	// A new observation at t=4s recycles the expired slot in place.
	w.Add(4*slot, 5)
	m = w.MomentsAt(4 * slot)
	if m.Count() != 4 || m.Summary().Max != 5 || m.Summary().Min != 2 {
		t.Fatalf("after recycle: count=%d min=%v max=%v, want 4/2/5", m.Count(), m.Summary().Min, m.Summary().Max)
	}

	// Far future: everything expired.
	m = w.MomentsAt(100 * slot)
	if m.Count() != 0 {
		t.Fatalf("after full expiry: count=%d, want 0", m.Count())
	}

	// A stale observation (older than the window at the time its ring slot
	// was last recycled) is dropped, not resurrected.
	w.Add(100*slot, 9)
	w.Add(96*slot, 123) // same ring position as t=100s, 4 slots older
	m = w.MomentsAt(100 * slot)
	if m.Count() != 1 || m.Summary().Max != 9 {
		t.Fatalf("stale add leaked in: count=%d max=%v, want 1/9", m.Count(), m.Summary().Max)
	}
}

// TestWindowedMomentsHammer races concurrent Adds (with advancing
// timestamps crossing sub-window boundaries) against concurrent snapshots,
// under -race in CI. Correctness checks are necessarily loose — boundary
// races may drop observations by design — but the aggregate must stay
// internally sane and never exceed what was added.
func TestWindowedMomentsHammer(t *testing.T) {
	w := NewWindowedMoments(time.Second, 4)
	var clock atomic.Int64 // shared fake clock, advanced by the adders
	var added atomic.Int64
	const (
		adders  = 4
		perG    = 5000
		tick    = int64(time.Second) / 10000
		loBound = -1.0
		hiBound = 2.0
	)
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() { // snapshot reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := w.MomentsAt(clock.Load())
			if n := m.Count(); n > 0 {
				if n > added.Load() {
					t.Errorf("snapshot counted %d > %d added", n, added.Load())
					return
				}
				if m.Summary().Min < loBound || m.Summary().Max > hiBound {
					t.Errorf("snapshot range [%v, %v] escaped [%v, %v]", m.Summary().Min, m.Summary().Max, loBound, hiBound)
					return
				}
			}
		}
	}()
	var addWG sync.WaitGroup
	for g := 0; g < adders; g++ {
		addWG.Add(1)
		go func(g int) {
			defer addWG.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				ts := clock.Add(tick)
				added.Add(1)
				w.Add(ts, loBound+rng.Float64()*(hiBound-loBound))
			}
		}(g)
	}
	addWG.Wait()
	close(stop)
	readerWG.Wait()

	m := w.MomentsAt(clock.Load())
	if m.Count() > added.Load() {
		t.Fatalf("final count %d > %d added", m.Count(), added.Load())
	}
	if m.Count() > 0 && (m.Summary().Min < loBound || m.Summary().Max > hiBound) {
		t.Fatalf("final range [%v, %v] escaped [%v, %v]", m.Summary().Min, m.Summary().Max, loBound, hiBound)
	}
}

// TestWindowedMomentsAddZeroAlloc pins the hot-path contract: Add is
// allocation-free once constructed.
func TestWindowedMomentsAddZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	w := NewWindowedMoments(time.Second, 8)
	var ts int64
	if n := testing.AllocsPerRun(500, func() {
		ts += int64(time.Millisecond)
		w.Add(ts, 0.25)
	}); n != 0 {
		t.Errorf("Add allocates %.1f/op, want 0", n)
	}
}

// TestWindowedMomentsDefaults pins the constructor clamps.
func TestWindowedMomentsDefaults(t *testing.T) {
	w := NewWindowedMoments(0, 0)
	if w.Slots() != 8 {
		t.Errorf("default slots = %d, want 8", w.Slots())
	}
	if w.WindowNanos() != time.Minute.Nanoseconds() {
		t.Errorf("default window = %dns, want 1m", w.WindowNanos())
	}
	if w := NewWindowedMoments(time.Second, -3); w.Slots() != 1 {
		t.Errorf("negative slots clamp = %d, want 1", w.Slots())
	}
}
