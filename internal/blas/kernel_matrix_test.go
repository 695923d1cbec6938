package blas

// Cross-validation of every execution path of the packed GEMM — both
// micro-tiles × all four transpose combinations × edge dimensions
// (1, MR±1, non-multiples of MC/KC/NC) × non-unit strides — against the
// naive reference, plus the same matrix through the small-shape path, a
// context-reuse test, steady-state allocation checks, and a concurrent
// stress test that hammers the pooled contexts (run under -race in CI).

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mat"
)

// forcePath pins the small-shape threshold of every op, on either kind of
// host, for the duration of a test so a case exercises exactly one execution
// path (on the vector unit the gate's k ≤ defaultKC still holds).
func forcePath(t *testing.T, limit int) {
	t.Helper()
	old := smallShapeLimit
	smallShapeLimit = limitsAll(limit)
	t.Cleanup(func() { smallShapeLimit = old })
}

// limitsAll is a smallShapeLimit with every entry set to limit.
func limitsAll(limit int) (l [2][3]int) {
	for v := range l {
		for op := range l[v] {
			l[v][op] = limit
		}
	}
	return l
}

// forceGoTile makes the CPU probes answer "no vector tile" for the duration
// of a test: defaultParams resolves to the Go 4×4 tile and validate rejects
// the vector ones, as on a machine without AVX2/FMA.
func forceGoTile(t *testing.T) {
	t.Helper()
	oldVec, oldZMM := useVec, useZMM
	useVec, useZMM = false, false
	t.Cleanup(func() { useVec, useZMM = oldVec, oldZMM })
}

// forceNoZMM makes the AVX-512 probe answer no for the duration of a test:
// defaultParams resolves to the YMM tile and validate rejects the ZMM one, as
// on a machine with AVX2 and FMA only.
func forceNoZMM(t *testing.T) {
	t.Helper()
	old := useZMM
	useZMM = false
	t.Cleanup(func() { useZMM = old })
}

// vecTile names a vector tile and its width in elements of the test's T.
type vecTile struct {
	name string
	nr   int
}

// vecTiles returns the vector tiles T has on this machine: none, the YMM
// tile, or the YMM and the ZMM tile.
func vecTiles[T float32 | float64]() []vecTile {
	var tiles []vecTile
	if useVec {
		tiles = append(tiles, vecTile{"ymm", ymmNR[T]()})
	}
	if useZMM {
		tiles = append(tiles, vecTile{"zmm", zmmNR[T]()})
	}
	return tiles
}

// testTiles returns the micro-tiles T has a kernel for on this machine: the
// Go 4×4 tile, and each vector tile the CPU runs.
func testTiles[T float32 | float64]() [][2]int {
	tiles := [][2]int{{goMR, goNR}}
	for _, vt := range vecTiles[T]() {
		tiles = append(tiles, [2]int{vecMR, vt.nr})
	}
	return tiles
}

// matrixThreads is the thread-count rotation of the packed tile matrices
// (GEMM, SYRK, SYR2K). TestTeamOversubscribed swaps in counts above
// GOMAXPROCS.
var matrixThreads = []int{1, 2, 3, 4}

const (
	forcePacked = 0           // every shape takes the packed kernel
	forceSmall  = math.MaxInt // every shape takes the small path
	sentinelF32 = float32(9.25e18)
	sentinelF64 = float64(9.25e18)
)

// stridedF32 builds an r×c matrix with the given extra stride padding,
// random logical content and sentinel-filled padding.
func stridedF32(r, c, extra int, rng *rand.Rand) *mat.F32 {
	stride := c + extra
	m := &mat.F32{Rows: r, Cols: c, Stride: stride, Data: make([]float32, r*stride)}
	for i := range m.Data {
		m.Data[i] = sentinelF32
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, float32(rng.NormFloat64()))
		}
	}
	return m
}

func stridedF64(r, c, extra int, rng *rand.Rand) *mat.F64 {
	stride := c + extra
	m := &mat.F64{Rows: r, Cols: c, Stride: stride, Data: make([]float64, r*stride)}
	for i := range m.Data {
		m.Data[i] = sentinelF64
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// checkPaddingF32 fails if any sentinel outside the logical region of m was
// overwritten.
func checkPaddingF32(t *testing.T, m *mat.F32, label string) {
	t.Helper()
	for i := 0; i < m.Rows; i++ {
		for j := m.Cols; j < m.Stride; j++ {
			if m.Data[i*m.Stride+j] != sentinelF32 {
				t.Fatalf("%s: wrote outside logical region at (%d,%d)", label, i, j)
			}
		}
	}
}

// matrixDims returns the edge-dimension set for a tile: 1, MR−1, MR+1,
// and values that leave remainders against the small MC/KC/NC blocking the
// matrix test runs with.
func matrixDims(r int) []int {
	set := map[int]bool{}
	var dims []int
	for _, d := range []int{1, r - 1, r + 1, 2*r + 1, 17, 33} {
		if d >= 1 && !set[d] {
			set[d] = true
			dims = append(dims, d)
		}
	}
	return dims
}

// TestPackedMatchesNaiveMatrix is the exhaustive edge-case matrix for the
// packed path. Blocking parameters are shrunk so MC/KC/NC boundaries land
// inside the test dimensions, and the transpose combination, thread count,
// and stride padding rotate per shape so the whole matrix stays fast while
// covering every axis.
func TestPackedMatchesNaiveMatrix(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(20))
	for _, tile := range testTiles[float32]() {
		mr, nr := tile[0], tile[1]
		prm := params{MC: 2 * mr, KC: 10, NC: 2 * nr, MR: mr, NR: nr}
		if err := prm.validate(); err != nil {
			t.Fatalf("tile %dx%d params: %v", mr, nr, err)
		}
		ctx := NewContext()
		defer ctx.Close()
		mDims := matrixDims(mr)
		nDims := matrixDims(nr)
		kDims := []int{1, 9, 10, 11, 21}
		combo := 0
		for _, m := range mDims {
			for _, k := range kDims {
				for _, n := range nDims {
					transA := combo&1 != 0
					transB := combo&2 != 0
					threads := matrixThreads[combo%len(matrixThreads)]
					extra := (combo % 3) * 3 // 0, 3, 6 stride padding
					alpha := float32(1.25)
					beta := float32(0.5)
					if combo%5 == 0 {
						beta = 0
					}
					combo++

					ar, ac := m, k
					if transA {
						ar, ac = k, m
					}
					br, bc := k, n
					if transB {
						br, bc = n, k
					}
					a := stridedF32(ar, ac, extra, rng)
					b := stridedF32(br, bc, extra, rng)
					c := stridedF32(m, n, extra, rng)
					want := c.Clone()
					NaiveSGEMM(transA, transB, alpha, a, b, beta, want)
					if err := drive(ctx, opGemm, transA, transB, alpha, *a, *b, beta, *c, threads, prm); err != nil {
						t.Fatalf("tile %dx%d m=%d k=%d n=%d ta=%v tb=%v: %v", mr, nr, m, k, n, transA, transB, err)
					}
					if d := c.Clone().MaxAbsDiff(want); d > tolF32(k) {
						t.Errorf("tile %dx%d m=%d k=%d n=%d ta=%v tb=%v threads=%d: max diff %v > %v",
							mr, nr, m, k, n, transA, transB, threads, d, tolF32(k))
					}
					checkPaddingF32(t, c, "packed C")
				}
			}
		}
	}
}

// TestSmallPathMatchesNaiveMatrix runs the same transpose × edge-dimension ×
// stride matrix through the no-packing small path, in both precisions.
func TestSmallPathMatchesNaiveMatrix(t *testing.T) {
	forcePath(t, forceSmall)
	rng := rand.New(rand.NewSource(21))
	dims := []int{1, 2, 3, 5, 8, 13}
	combo := 0
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				transA := combo&1 != 0
				transB := combo&2 != 0
				extra := (combo % 3) * 2
				beta := 0.75
				if combo%4 == 0 {
					beta = 0
				}
				combo++

				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a := stridedF64(ar, ac, extra, rng)
				b := stridedF64(br, bc, extra, rng)
				c := stridedF64(m, n, extra, rng)
				want := c.Clone()
				NaiveDGEMM(transA, transB, -1.5, a, b, beta, want)
				if err := DGEMM(transA, transB, -1.5, a, b, beta, c, 3); err != nil {
					t.Fatalf("m=%d k=%d n=%d ta=%v tb=%v: %v", m, k, n, transA, transB, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF64(k) {
					t.Errorf("m=%d k=%d n=%d ta=%v tb=%v: max diff %v", m, k, n, transA, transB, d)
				}
			}
		}
	}
}

// TestSmallShapeGate pins the gate itself at the default limits, per op and
// per kind of host: the boundaries, k ≤ defaultKC, SYR2K's k counted once,
// and products that wrap an int — 2048³ and 65536²·1 are 0 in 32 bits
// (GOARCH=386, where the first sent an 8.6-GFLOP call down the small path),
// 2²¹·2²¹·2²² is 0 in 64. Only the gate reads useVec here, so both answers
// are checked on any host.
func TestSmallShapeGate(t *testing.T) {
	type gateCase struct {
		op      opKind
		m, n, k int
		want    bool
	}
	wraps := []gateCase{
		{opGemm, 2048, 2048, 2048, false}, {opGemm, 65536, 65536, 1, false}, {opGemm, 1 << 21, 1 << 21, 1 << 22, false},
		{opSyrk, 65536, 65536, 1, false}, {opSyr2k, 1 << 21, 1 << 21, 1 << 22, false},
	}
	for _, host := range []struct {
		vec   bool
		cases []gateCase
	}{
		{false, []gateCase{
			{opGemm, 1, 1, 1, true}, {opGemm, 20, 20, 20, true}, {opGemm, 20, 20, 21, false}, {opGemm, 1, 8000, 1, true}, {opGemm, 8001, 1, 1, false},
			{opGemm, 31, 1, 256, true}, {opGemm, 1, 1, 257, false}, {opSyrk, 20, 20, 20, true}, {opSyrk, 20, 20, 21, false},
			{opSyr2k, 20, 20, 20, true}, {opSyr2k, 20, 20, 21, false}, {opSyr2k, 6, 6, 222, true}, {opSyr2k, 6, 6, 223, false},
			{opSyr2k, 1, 1, 256, true}, {opSyr2k, 1, 1, 257, false},
		}},
		{true, []gateCase{
			{opGemm, 1, 1, 1, true}, {opGemm, 16, 16, 16, true}, {opGemm, 16, 16, 17, false}, {opGemm, 1, 4096, 1, true},
			{opGemm, 4097, 1, 1, false}, {opGemm, 4, 4, 256, true}, {opGemm, 1, 1, 257, false},
			{opSyrk, 32, 32, 32, true}, {opSyrk, 32, 32, 33, false}, {opSyrk, 11, 11, 256, true}, {opSyrk, 2, 2, 257, false},
			{opSyr2k, 32, 32, 32, true}, {opSyr2k, 33, 33, 31, false}, {opSyr2k, 1, 1, 256, true}, {opSyr2k, 1, 1, 257, false},
		}},
	} {
		old := useVec
		useVec = host.vec
		for _, tc := range append(host.cases, wraps...) {
			if got := smallShape(tc.op, tc.m, tc.n, tc.k); got != tc.want {
				t.Errorf("useVec=%v: smallShape(%v, %d, %d, %d) = %v, want %v", host.vec, tc.op, tc.m, tc.n, tc.k, got, tc.want)
			}
		}
		useVec = old
	}
}

// TestContextReuse drives one Context through mixed precisions, shapes,
// thread counts, and blocking parameters, with Close in the middle — the
// team and buffers must regrow transparently.
func TestContextReuse(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(23))
	ctx := NewContext()
	defer ctx.Close()
	shapes := [][4]int{{30, 20, 25, 1}, {64, 64, 64, 4}, {10, 10, 10, 2}, {80, 33, 47, 3}}
	for round := 0; round < 2; round++ {
		for _, sh := range shapes {
			m, k, n, threads := sh[0], sh[1], sh[2], sh[3]
			a32 := randF32(m, k, rng)
			b32 := randF32(k, n, rng)
			c32 := mat.NewF32(m, n)
			want32 := mat.NewF32(m, n)
			NaiveSGEMM(false, false, 1, a32, b32, 0, want32)
			if err := ctx.SGEMM(false, false, 1, a32, b32, 0, c32, threads); err != nil {
				t.Fatal(err)
			}
			if d := c32.MaxAbsDiff(want32); d > tolF32(k) {
				t.Errorf("round %d f32 %v: diff %v", round, sh, d)
			}
			a64 := randF64(m, k, rng)
			b64 := randF64(k, n, rng)
			c64 := mat.NewF64(m, n)
			want64 := mat.NewF64(m, n)
			NaiveDGEMM(false, false, 2, a64, b64, 0, want64)
			if m != k {
				// Dimension errors must not corrupt the reused context.
				if err := ctx.DGEMM(true, false, 2, a64, b64, 0, c64, threads); err == nil {
					t.Fatalf("round %d: transposed A with untransposed dims should error", round)
				}
			}
			if err := ctx.DGEMM(false, false, 2, a64, b64, 0, c64, threads); err != nil {
				t.Fatal(err)
			}
			if d := c64.MaxAbsDiff(want64); d > tolF64(k) {
				t.Errorf("round %d f64 %v: diff %v", round, sh, d)
			}
		}
		ctx.Close() // next round must recreate the team
	}
	ctx.Close() // idempotent
}

// TestContextWorkersReclaimedByGC drops an un-Closed Context after parallel
// use and verifies its parked workers exit: the GC cleanup must reach the
// team, which requires run() to drop its job closure (the closure references
// the Context) after every round.
func TestContextWorkersReclaimedByGC(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(26))
	a := randF32(64, 64, rng)
	b := randF32(64, 64, rng)
	c := mat.NewF32(64, 64)
	// Let workers of previously-Closed teams finish exiting so the baseline
	// is stable.
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur >= before {
			before = cur
			break
		}
		before = cur
	}
	func() {
		ctx := NewContext() // deliberately not Closed
		for i := 0; i < 2; i++ {
			if err := ctx.SGEMM(false, false, 1, a, b, 0, c, 4); err != nil {
				t.Fatal(err)
			}
		}
		if got := runtime.NumGoroutine(); got < before+3 {
			t.Fatalf("expected 3 parked workers, goroutines %d -> %d", before, got)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("worker goroutines not reclaimed after GC: %d -> %d", before, runtime.NumGoroutine())
}

// TestSGEMMZeroAllocSteadyState enforces the zero-allocation guarantee of
// both the Context path and the pooled package path once warm.
func TestSGEMMZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(24))
	a := randF32(128, 96, rng)
	b := randF32(96, 112, rng)
	c := mat.NewF32(128, 112)
	for _, tc := range []struct {
		name    string
		threads int
	}{{"serial", 1}, {"team2", 2}, {"team4", 4}} {
		ctx := NewContext()
		for i := 0; i < 2; i++ { // warm: buffers, team, worker closure
			if err := ctx.SGEMM(false, false, 1, a, b, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ctx.SGEMM(false, false, 1, a, b, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		})
		ctx.Close()
		if allocs != 0 {
			t.Errorf("Context.SGEMM %s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	for i := 0; i < 3; i++ { // warm the package pool
		if err := SGEMM(false, false, 1, a, b, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := SGEMM(false, false, 1, a, b, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled blas.SGEMM: %v allocs/op, want 0", allocs)
	}
}

// TestConcurrentGemmPoolStress hammers the pooled contexts from concurrent
// callers with mixed shapes and thread counts. Run under -race in CI: it is
// the guard against buffer sharing between pooled contexts and against
// worker-team wakeup races.
func TestConcurrentGemmPoolStress(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(25))
	type problem struct {
		a, b, want *mat.F32
		m, n, k    int
	}
	problems := make([]problem, 6)
	for i := range problems {
		m := 32 + 16*i
		k := 48 + 8*i
		n := 96 - 8*i
		a := randF32(m, k, rng)
		b := randF32(k, n, rng)
		want := mat.NewF32(m, n)
		NaiveSGEMM(false, false, 1, a, b, 0, want)
		problems[i] = problem{a: a, b: b, want: want, m: m, n: n, k: k}
	}
	goroutines := 8
	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				p := problems[(g+it)%len(problems)]
				threads := 1 + (g+it)%4
				c := mat.NewF32(p.m, p.n)
				if err := SGEMM(false, false, 1, p.a, p.b, 0, c, threads); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
				if d := c.MaxAbsDiff(p.want); d > tolF32(p.k) {
					select {
					case errs <- fmt.Errorf("goroutine %d iter %d: diff %v", g, it, d):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	runtime.GC() // exercise the context-cleanup path under race too
}
