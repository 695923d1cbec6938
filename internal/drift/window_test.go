package drift

import (
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/ops"
)

// TestWindowMergeEqualsWhole pins the merge contract: observations spread
// across every sub-window of one live window aggregate, via the per-slot
// Moments and Moments.Merge, to the same statistics as one flat Moments over
// the same values — up to floating-point rounding.
func TestWindowMergeEqualsWhole(t *testing.T) {
	var c cell
	rng := rand.New(rand.NewSource(7))
	var wholeRes, wholeAbs obs.Moments
	// Epochs walk forward through all slots sub-windows (no eviction:
	// everything stays inside the window ending at the last one).
	const n = 4000
	for i := 0; i < n; i++ {
		e := int64(1 + i*slots/n)
		x, y := rng.NormFloat64()*3+1.5, rng.Float64()
		c.observe(e, x, y, true)
		wholeRes.Add(x)
		wholeAbs.Add(y)
	}
	samples, res, abs := c.momentsAt(slots)
	if samples != n {
		t.Fatalf("samples: got %d, want %d", samples, n)
	}
	for _, pair := range []struct {
		name      string
		got, want obs.Moments
	}{{"residual", res, wholeRes}, {"abs_rel", abs, wholeAbs}} {
		if pair.got.Count() != pair.want.Count() {
			t.Fatalf("%s count: got %d, want %d", pair.name, pair.got.Count(), pair.want.Count())
		}
		got, want := pair.got.Summary(), pair.want.Summary()
		approx := func(field string, got, want float64) {
			t.Helper()
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("%s %s: got %v, want %v", pair.name, field, got, want)
			}
		}
		approx("mean", got.Mean, want.Mean)
		approx("std", got.Std, want.Std)
		approx("min", got.Min, want.Min)
		approx("max", got.Max, want.Max)
	}
}

// TestWindowEviction pins eviction: once the read point advances past the
// window, old sub-windows drop out of the aggregate — first slot by slot,
// then entirely — and a stale observation is dropped, not resurrected.
func TestWindowEviction(t *testing.T) {
	var c cell
	count := func(hi int64) (int64, obs.Summary) {
		_, res, _ := c.momentsAt(hi)
		return res.Count(), res.Summary()
	}

	// One observation per sub-window: values 1..slots at epochs 1..slots.
	for e := int64(1); e <= slots; e++ {
		c.observe(e, float64(e), 0, true)
	}
	if n, s := count(slots); n != slots || s.Min != 1 || s.Max != slots {
		t.Fatalf("pre-eviction: count=%d min=%v max=%v, want %d/1/%d", n, s.Min, s.Max, slots, slots)
	}

	// Advance the read point one sub-window: epoch 1 (value 1) expires.
	if n, s := count(slots + 1); n != slots-1 || s.Min != 2 {
		t.Fatalf("after one slot expiry: count=%d min=%v, want %d/2", n, s.Min, slots-1)
	}

	// A new observation recycles the expired slot in place.
	c.observe(slots+1, slots+1, 0, true)
	if n, s := count(slots + 1); n != slots || s.Min != 2 || s.Max != slots+1 {
		t.Fatalf("after recycle: count=%d min=%v max=%v, want %d/2/%d", n, s.Min, s.Max, slots, slots+1)
	}

	// Far future: everything expired.
	if n, _ := count(100); n != 0 {
		t.Fatalf("after full expiry: count=%d, want 0", n)
	}

	// An observation older than the sub-window its ring slot now holds is
	// dropped from the window but still counted as a sample.
	c.observe(100, 9, 0, true)
	c.observe(100-slots, 123, 0, true) // same ring slot, one window older
	if n, s := count(100); n != 1 || s.Max != 9 {
		t.Fatalf("stale observation leaked in: count=%d max=%v, want 1/9", n, s.Max)
	}
	if samples, _, _ := c.momentsAt(100); samples != slots+3 {
		t.Fatalf("samples = %d, want %d", samples, slots+3)
	}
}

// TestWindowHammer races concurrent ObserveAt calls, on a shared fake clock
// that crosses a dozen slot boundaries, against SnapshotAt, DriftingOps and
// LogEvents — under -race in CI. Every observation inside the final window
// must be counted: no observation is lost to a concurrent slot recycle.
func TestWindowHammer(t *testing.T) {
	m := NewMonitor(Config{Window: time.Second})
	const (
		observers = 4
		perG      = 5000
		spanSlots = 12
	)
	tick := m.slotNanos * spanSlots / (observers * perG)
	var clock atomic.Int64
	var observed atomic.Int64

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		lg := logx.New(io.Discard, logx.Info)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rep := m.SnapshotAt(clock.Load())
			if got := rep.PerOp["gemm"].ResidualLog2.Count; got > observed.Load() {
				t.Errorf("snapshot counted %d > %d observed", got, observed.Load())
				return
			}
			m.DriftingOps()
			m.LogEvents(lg)
		}
	}()

	stamps := make([][]int64, observers)
	var wg sync.WaitGroup
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stamps[g] = make([]int64, 0, perG)
			for i := 0; i < perG; i++ {
				ts := clock.Add(tick)
				observed.Add(1)
				m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 2_000_000, 1_000_000)
				stamps[g] = append(stamps[g], ts)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	end := clock.Load()
	if crossed := m.epochOf(end) - m.epochOf(tick); crossed < 3 {
		t.Fatalf("clock crossed %d slot boundaries, want at least 3", crossed)
	}
	hi := m.epochOf(end)
	var inWindow int64
	for _, ss := range stamps {
		for _, ts := range ss {
			if m.epochOf(ts) > hi-slots {
				inWindow++
			}
		}
	}
	bd := m.SnapshotAt(end).PerOp["gemm"].Buckets["small"]
	if bd.Samples != observers*perG {
		t.Errorf("samples = %d, want %d", bd.Samples, observers*perG)
	}
	if bd.ResidualLog2.Count != inWindow || bd.AbsRelErr.Count != inWindow {
		t.Errorf("window counts residual=%d abs_rel=%d, want exactly %d in-window observations",
			bd.ResidualLog2.Count, bd.AbsRelErr.Count, inWindow)
	}
	if inWindow == observers*perG || inWindow == 0 {
		t.Errorf("%d of %d observations in window: the clock should evict some and keep some", inWindow, observers*perG)
	}
}

// TestWindowObserveZeroAlloc pins that ObserveAt stays allocation-free while
// its timestamps advance through slot recycles.
func TestWindowObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	m := NewMonitor(Config{Window: time.Second})
	var ts int64
	if n := testing.AllocsPerRun(500, func() {
		ts += int64(time.Millisecond)
		m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 2_000_000, 1_000_000)
	}); n != 0 {
		t.Errorf("ObserveAt allocates %.1f/op, want 0", n)
	}
}

// TestWindowDefaults pins the zero-value window: one minute in eight slots.
func TestWindowDefaults(t *testing.T) {
	m := NewMonitor(Config{})
	if m.cfg.Window != time.Minute {
		t.Errorf("default window = %v, want 1m", m.cfg.Window)
	}
	if m.slotNanos != int64(time.Minute)/8 {
		t.Errorf("slot = %dns, want 1m/8", m.slotNanos)
	}
	rep := m.SnapshotAt(0)
	if rep.Slots != 8 || rep.WindowSeconds != 60 {
		t.Errorf("report slots=%d window_seconds=%v, want 8/60", rep.Slots, rep.WindowSeconds)
	}
}
