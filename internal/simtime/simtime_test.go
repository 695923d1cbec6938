package simtime

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/ops"
)

func gadiSim() *Simulator {
	cfg := DefaultConfig(machine.Gadi())
	cfg.NoiseSigma = 0
	return New(cfg)
}

func setonixSim() *Simulator {
	cfg := DefaultConfig(machine.Setonix())
	cfg.NoiseSigma = 0
	return New(cfg)
}

func optimal(s *Simulator, m, k, n int) (int, float64) {
	best, bt := 1, math.Inf(1)
	for p := 1; p <= s.MaxThreads(); p++ {
		if t := s.Breakdown(m, k, n, p).Total(); t < bt {
			best, bt = p, t
		}
	}
	return best, bt
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil node should panic")
		}
	}()
	New(Config{})
}

func TestBreakdownComponentsNonNegative(t *testing.T) {
	s := gadiSim()
	for _, c := range [][4]int{{1, 1, 1, 1}, {64, 64, 64, 96}, {5000, 5000, 5000, 48}, {64, 2048, 64, 96}} {
		b := s.Breakdown(c[0], c[1], c[2], c[3])
		if b.Spawn < 0 || b.Sync < 0 || b.Copy < 0 || b.Kernel <= 0 {
			t.Errorf("%v: breakdown %+v has non-positive component", c, b)
		}
		if b.Total() <= 0 {
			t.Errorf("%v: total %v", c, b.Total())
		}
	}
}

func TestSingleThreadHasNoParallelOverhead(t *testing.T) {
	s := setonixSim()
	b := s.Breakdown(500, 500, 500, 1)
	if b.Spawn != 0 || b.Sync != 0 {
		t.Errorf("single thread: spawn=%v sync=%v, want 0", b.Spawn, b.Sync)
	}
	// Small single-thread GEMM fits L3: no packing copy either (Table VII's
	// zero copy at 1 thread).
	if b.Copy != 0 {
		t.Errorf("cache-resident single-thread copy = %v, want 0", b.Copy)
	}
}

func TestLargeSquareWantsManyThreads(t *testing.T) {
	s := gadiSim()
	opt, _ := optimal(s, 6000, 6000, 6000)
	if opt < 24 {
		t.Errorf("6000³ optimal threads = %d, want near core count", opt)
	}
	t1 := s.Breakdown(6000, 6000, 6000, 1).Total()
	t48 := s.Breakdown(6000, 6000, 6000, 48).Total()
	if t48 >= t1/8 {
		t.Errorf("poor scaling: t1=%v t48=%v", t1, t48)
	}
}

func TestSmallGEMMWantsFewThreads(t *testing.T) {
	s := gadiSim()
	opt, _ := optimal(s, 64, 64, 64)
	if opt > 24 {
		t.Errorf("64³ optimal threads = %d, want far below 96", opt)
	}
}

func TestTableVIIShapeGadi(t *testing.T) {
	// 64×2048×64: paper found optimum 14 threads with ~80-150× advantage
	// over 96 threads. Require the same regime: optimum in [4, 32] and at
	// least 20× speedup.
	s := gadiSim()
	opt, bt := optimal(s, 64, 2048, 64)
	if opt < 4 || opt > 32 {
		t.Errorf("64×2048×64 optimal = %d, want 4..32 (paper: 14)", opt)
	}
	t96 := s.Breakdown(64, 2048, 64, 96)
	if ratio := t96.Total() / bt; ratio < 20 {
		t.Errorf("max-thread pathology ratio = %v, want >= 20 (paper: ~80)", ratio)
	}
	// Data copy must dominate the 96-thread time (Table VII's key finding).
	if t96.Copy < t96.Kernel || t96.Copy < t96.Sync {
		t.Errorf("copy should dominate at 96 threads: %+v", t96)
	}
}

func TestSetonixSpeedupExceedsGadi(t *testing.T) {
	// Headline: the 128-core platform gains more from thread selection than
	// the 48-core one (1.41× vs 1.26× at ≤100 MB). Check on a moderate shape.
	check := func(s *Simulator, ref int) float64 {
		_, bt := optimal(s, 700, 700, 700)
		return s.Breakdown(700, 700, 700, ref).Total() / bt
	}
	gadi := check(gadiSim(), 48)
	set := check(setonixSim(), 128)
	if set <= 1 || gadi <= 0.5 {
		t.Errorf("implausible speedups: setonix %v gadi %v", set, gadi)
	}
}

func TestAffinityCoreBeatsThreadAtLowCounts(t *testing.T) {
	// Fig 7: below half the hardware threads, core-based affinity wins.
	node := machine.Gadi()
	mk := func(pol machine.AffinityPolicy) *Simulator {
		cfg := DefaultConfig(node)
		cfg.NoiseSigma = 0
		cfg.Policy = pol
		return New(cfg)
	}
	core, thread := mk(machine.CoreBased), mk(machine.ThreadBased)
	m, k, n := 2000, 2000, 2000
	for _, p := range []int{8, 16, 24, 40} {
		tc := core.Breakdown(m, k, n, p).Total()
		tt := thread.Breakdown(m, k, n, p).Total()
		if tc >= tt {
			t.Errorf("p=%d: core-based %v not faster than thread-based %v", p, tc, tt)
		}
	}
	// At full occupancy both policies place identically.
	tc := core.Breakdown(m, k, n, 96).Total()
	tt := thread.Breakdown(m, k, n, 96).Total()
	if math.Abs(tc-tt)/tc > 1e-9 {
		t.Errorf("p=96: policies should agree: %v vs %v", tc, tt)
	}
}

func TestHyperThreadingBounds(t *testing.T) {
	node := machine.Setonix()
	cfg := DefaultConfig(node)
	cfg.HT = false
	s := New(cfg)
	if s.MaxThreads() != 128 {
		t.Errorf("no-HT max = %d", s.MaxThreads())
	}
	cfg.HT = true
	if New(cfg).MaxThreads() != 256 {
		t.Error("HT max should be 256")
	}
}

func TestEffectiveThreadsThrottle(t *testing.T) {
	s := gadiSim()
	// Tiny problem: 2·4·4·4 = 128 flops → 1 thread regardless of request.
	if got := s.EffectiveThreads(4, 4, 4, 96); got != 1 {
		t.Errorf("tiny GEMM effective threads = %d, want 1", got)
	}
	// Large problem: no throttle.
	if got := s.EffectiveThreads(4096, 4096, 4096, 96); got != 96 {
		t.Errorf("big GEMM effective threads = %d, want 96", got)
	}
	if got := s.EffectiveThreads(100, 100, 100, -3); got != 1 {
		t.Errorf("negative request = %d, want 1", got)
	}
	// Throttle flattens the time curve: requesting far more threads than
	// the grain admits must cost the same as requesting the cap.
	cap := s.EffectiveThreads(32, 32, 32, 96)
	tAtCap := s.Breakdown(32, 32, 32, cap).Total()
	tAt96 := s.Breakdown(32, 32, 32, 96).Total()
	if tAtCap != tAt96 {
		t.Errorf("throttle leak: %v vs %v", tAtCap, tAt96)
	}
}

func TestNoiseStatistics(t *testing.T) {
	cfg := DefaultConfig(machine.Gadi())
	cfg.NoiseSigma = 0.05
	s := New(cfg)
	base := s.Breakdown(512, 512, 512, 16).Total()
	var sum float64
	const reps = 400
	for r := 0; r < reps; r++ {
		v := base * s.noise(ops.GEMM, 512, 512, 512, 16, r)
		if v <= 0 {
			t.Fatalf("rep %d: non-positive time", r)
		}
		sum += v
	}
	mean := sum / reps
	if math.Abs(mean-base)/base > 0.02 {
		t.Errorf("noisy mean %v deviates from base %v", mean, base)
	}
	// Determinism: same rep gives same draw.
	if s.noise(ops.GEMM, 512, 512, 512, 16, 3) != s.noise(ops.GEMM, 512, 512, 512, 16, 3) {
		t.Error("noise not deterministic")
	}
	// Different reps give different draws.
	if s.noise(ops.GEMM, 512, 512, 512, 16, 1) == s.noise(ops.GEMM, 512, 512, 512, 16, 2) {
		t.Error("noise constant across reps")
	}
}

func TestMeasureMeanMatchesManualAverage(t *testing.T) {
	cfg := DefaultConfig(machine.Setonix())
	cfg.NoiseSigma = 0.04
	s := New(cfg)
	base := s.Breakdown(300, 300, 300, 8).Total()
	var manual float64
	for r := 0; r < 10; r++ {
		manual += base * s.noise(ops.GEMM, 300, 300, 300, 8, r)
	}
	manual /= 10
	if got := s.Measure(ops.GEMM, 300, 300, 300, 8, 10); got != manual {
		t.Errorf("Measure = %v, manual = %v", got, manual)
	}
	mustPanic(t, func() { s.Measure(ops.GEMM, 300, 300, 300, 8, 0) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("no panic; iters < 1 has no default below the facade")
		}
	}()
	f()
}

func TestGFLOPSBelowPeak(t *testing.T) {
	s := setonixSim()
	peak := machine.Setonix().PeakGFLOPS(true)
	for _, p := range []int{1, 16, 64, 128, 256} {
		g := s.GFLOPS(4096, 4096, 4096, p)
		if g <= 0 || g > peak {
			t.Errorf("p=%d: GFLOPS %v outside (0, %v]", p, g, peak)
		}
	}
}

func TestPrecisionF64Slower(t *testing.T) {
	cfg := DefaultConfig(machine.Gadi())
	cfg.NoiseSigma = 0
	f32 := New(cfg)
	cfg.Precision = F64
	f64 := New(cfg)
	t32 := f32.Breakdown(2048, 2048, 2048, 48).Total()
	t64 := f64.Breakdown(2048, 2048, 2048, 48).Total()
	if t64 <= t32 {
		t.Errorf("DGEMM %v not slower than SGEMM %v", t64, t32)
	}
	if F32.Bytes() != 4 || F64.Bytes() != 8 {
		t.Error("Precision.Bytes wrong")
	}
}

// Property: time is positive and finite over the whole request space.
func TestTimePositiveProperty(t *testing.T) {
	s := gadiSim()
	f := func(mr, kr, nr uint16, pr uint8) bool {
		m, k, n := 1+int(mr%8192), 1+int(kr%8192), 1+int(nr%8192)
		p := 1 + int(pr%96)
		v := s.Breakdown(m, k, n, p).Total()
		return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRealTimerRuns(t *testing.T) {
	rt := NewRealTimer()
	t1 := rt.Measure(ops.GEMM, 64, 64, 64, 1, 2)
	if t1 <= 0 {
		t.Fatalf("real time = %v", t1)
	}
	// Bigger problem must take longer (same thread count).
	t2 := rt.Measure(ops.GEMM, 256, 256, 256, 1, 2)
	if t2 <= t1 {
		t.Errorf("256³ (%v) not slower than 64³ (%v)", t2, t1)
	}
	// A shape whose operands were dropped is rebuilt (no crash, sane value).
	if again := rt.Measure(ops.GEMM, 64, 64, 64, 2, 2); again <= 0 {
		t.Error("revisited-shape timing failed")
	}
}

// TestRealTimerRepetitionCount pins the repetition accounting: Measure runs
// exactly its iters argument of kernel calls, and there is no second count
// anywhere to compound with it (the iters² bug the core gather regression
// test guards end to end).
func TestRealTimerRepetitionCount(t *testing.T) {
	rt := NewRealTimer()
	for _, iters := range []int{3, 5, 1} {
		before := rt.GemmCalls()
		if rt.Measure(ops.GEMM, 16, 16, 16, 1, iters); rt.GemmCalls()-before != int64(iters) {
			t.Errorf("Measure(iters=%d) ran %d GEMMs", iters, rt.GemmCalls()-before)
		}
	}
	mustPanic(t, func() { rt.Measure(ops.GEMM, 16, 16, 16, 1, 0) })
}

// TestRealTimerKeepsOneOperandSet is the retention regression: a sweep
// visits each shape once, so after 20 distinct shapes the timer must
// reference the last operand set only — not all 20, which in a process that
// lives for a whole real-timing sweep grows until the OOM killer ends it.
func TestRealTimerKeepsOneOperandSet(t *testing.T) {
	const dim, shapes = 300, 20
	oneSet := uint64(3 * (dim + shapes) * (dim + shapes) * 4) // A, B, C in f32
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC() // the kernels' pooled contexts survive one cycle in sync.Pool's victim cache
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	rt := NewRealTimer()
	rt.Measure(ops.GEMM, dim, dim, dim, 1, 1) // the kernel's packing buffers are part of the baseline
	before := heapInuse()
	for i := 1; i <= shapes; i++ {
		rt.Measure(ops.GEMM, dim+i, dim+i, dim+i, 1, 1)
	}
	after := heapInuse()

	if c := rt.cur; c.m != dim+shapes || c.k != dim+shapes || c.n != dim+shapes || c.run == nil {
		t.Errorf("slot holds %v %dx%dx%d, want the last shape measured", c.op, c.m, c.k, c.n)
	}
	if after > before && after-before > 3*oneSet {
		t.Errorf("HeapInuse grew %d B over %d shapes, want under 3 operand sets (%d B)", after-before, shapes, 3*oneSet)
	}
	runtime.KeepAlive(rt)
}

// TestRealTimerConcurrentShapes: a RealTimer is safe for concurrent use.
// Callers on different shapes evict each other's slot, and each must still
// finish its own call on the operands it was handed.
func TestRealTimerConcurrentShapes(t *testing.T) {
	rt := NewRealTimer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				op := ops.All()[(g+i)%ops.NumOps()]
				if secs := rt.Measure(op, 24+g, 16, 24+g, 1+g%2, 2); secs <= 0 {
					t.Errorf("goroutine %d: %v measured %v seconds", g, op, secs)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := rt.GemmCalls(), int64(4*20*2); got != want {
		t.Errorf("timed calls = %d, want %d", got, want)
	}
}
