package blas

// Unit tests for the assembly tiles — code the compiler no longer checks.
// microVec is driven directly with panels of exactly the length the kernel
// may read and an accumulator block fenced by canaries, so a stray store or
// an over-read shows up here rather than as a wrong digit in a GEMM.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// fencedAcc surrounds the accumulator block with canary elements; the
// kernel must write tile[:6·NR] and nothing else.
type fencedAcc[T float32 | float64] struct {
	pre  [16]T
	tile [maxTile]T
	post [16]T
}

const canary = -7.5e11

func (f *fencedAcc[T]) fill() {
	for i := range f.pre {
		f.pre[i], f.post[i] = canary, canary
	}
	for i := range f.tile {
		f.tile[i] = canary
	}
}

// sentinelPanel returns a panel of n random elements followed directly by
// NaN sentinels, and the n-element slice microVec is given. An over-read
// past n that reaches an accumulator turns it NaN.
func sentinelPanel[T float32 | float64](n int, rng *rand.Rand) []T {
	buf := make([]T, n+64)
	for i := range buf {
		buf[i] = T(math.NaN())
	}
	for i := 0; i < n; i++ {
		buf[i] = T(rng.NormFloat64())
	}
	return buf[:n:n]
}

// checkVecTile runs one microVec call of the nr-wide tile and compares every
// accumulator with a float64 reference summed in ascending p. NaN and ±Inf
// must propagate exactly as the reference has them.
func checkVecTile[T float32 | float64](t *testing.T, a, b []T, kc, nr int, relTol float64) {
	t.Helper()
	var f fencedAcc[T]
	f.fill()
	microVec(a, b, kc, nr, &f.tile)
	for i := range f.pre {
		if f.pre[i] != canary || f.post[i] != canary {
			t.Fatalf("kc=%d: store outside the accumulator block (canary %d)", kc, i)
		}
	}
	for i := vecMR * nr; i < maxTile; i++ {
		if f.tile[i] != canary {
			t.Fatalf("kc=%d: store past the %dx%d tile at acc[%d]", kc, vecMR, nr, i)
		}
	}
	for i := 0; i < vecMR; i++ {
		for j := 0; j < nr; j++ {
			var want, scale float64
			for p := 0; p < kc; p++ {
				x, y := float64(a[p*vecMR+i]), float64(b[p*nr+j])
				want += x * y
				scale += math.Abs(x * y)
			}
			got := float64(f.tile[i*nr+j])
			switch {
			case math.IsNaN(want):
				if !math.IsNaN(got) {
					t.Errorf("kc=%d acc(%d,%d) = %v, want NaN", kc, i, j, got)
				}
			case math.IsInf(want, 0):
				if got != want {
					t.Errorf("kc=%d acc(%d,%d) = %v, want %v", kc, i, j, got, want)
				}
			case math.IsNaN(got) || math.Abs(got-want) > relTol*(scale+1):
				t.Errorf("kc=%d acc(%d,%d) = %v, want %v (over-read or wrong sum)", kc, i, j, got, want)
			}
		}
	}
}

func testVecTile[T float32 | float64](t *testing.T, relTol float64) {
	if !useVec {
		t.Skip("no vector tile on this machine")
	}
	for _, vt := range vecTiles[T]() {
		t.Run(vt.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(60))
			nr := vt.nr
			for _, kc := range []int{1, 2, 3, 4, 5, 7, 8, 31, 255, 256, 257} {
				a := sentinelPanel[T](kc*vecMR, rng)
				b := sentinelPanel[T](kc*nr, rng)
				checkVecTile(t, a, b, kc, nr, relTol)

				// Non-finite values inside the panels: a NaN in A poisons its
				// row, an Inf in B its column, in the unrolled body and in the
				// tail.
				for _, p := range []int{0, kc / 2, kc - 1} {
					a2, b2 := append([]T(nil), a...), append([]T(nil), b...)
					a2[p*vecMR+rng.Intn(vecMR)] = T(math.NaN())
					b2[p*nr+rng.Intn(nr)] = T(math.Inf(1 - 2*rng.Intn(2)))
					checkVecTile(t, a2, b2, kc, nr, relTol)
				}
			}
			// A panel shorter than kc steps must panic in Go, before the
			// assembly.
			defer func() {
				if recover() == nil {
					t.Error("short panel did not panic")
				}
			}()
			var f fencedAcc[T]
			microVec(make([]T, 4*vecMR), make([]T, 5*nr-1), 5, nr, &f.tile)
		})
	}
}

func TestVecTileF32(t *testing.T) { testVecTile[float32](t, 1e-6) }
func TestVecTileF64(t *testing.T) { testVecTile[float64](t, 1e-15) }

// TestVecTileF64FMAOrder pins the summation order bit for bit: each lane is
// one fused multiply-add per p, ascending — what math.FMA computes — in every
// vector tile, which is why the tiles agree bit for bit.
func TestVecTileF64FMAOrder(t *testing.T) {
	if !useVec {
		t.Skip("no vector tile on this machine")
	}
	for _, vt := range vecTiles[float64]() {
		rng := rand.New(rand.NewSource(61))
		const kc = 133
		nr := vt.nr
		a := sentinelPanel[float64](kc*vecMR, rng)
		b := sentinelPanel[float64](kc*nr, rng)
		var acc [maxTile]float64
		microVec(a, b, kc, nr, &acc)
		for i := 0; i < vecMR; i++ {
			for j := 0; j < nr; j++ {
				var want float64
				for p := 0; p < kc; p++ {
					want = math.FMA(a[p*vecMR+i], b[p*nr+j], want)
				}
				if got := acc[i*nr+j]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s acc(%d,%d) = %x, want %x", vt.name, i, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestVectorTileZeroAlloc pins the //adsala:zeroalloc contract of the
// dispatch wrapper in both precisions and every vector tile width, and the
// steady-state DGEMM through it (the SGEMM/SSYRK/SSYR2K steady-state tests
// run the float32 tile).
func TestVectorTileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	if !useVec {
		t.Skip("no vector tile on this machine")
	}
	rng := rand.New(rand.NewSource(62))
	const kc = 64
	for _, vt := range vecTiles[float32]() {
		a, b := sentinelPanel[float32](kc*vecMR, rng), sentinelPanel[float32](kc*vt.nr, rng)
		var acc [maxTile]float32
		if n := testing.AllocsPerRun(100, func() { microVec(a, b, kc, vt.nr, &acc) }); n != 0 {
			t.Errorf("microVec[float32] %s: %v allocs/op, want 0", vt.name, n)
		}
	}
	for _, vt := range vecTiles[float64]() {
		a, b := sentinelPanel[float64](kc*vecMR, rng), sentinelPanel[float64](kc*vt.nr, rng)
		var acc [maxTile]float64
		if n := testing.AllocsPerRun(100, func() { microVec(a, b, kc, vt.nr, &acc) }); n != 0 {
			t.Errorf("microVec[float64] %s: %v allocs/op, want 0", vt.name, n)
		}
	}

	a, b, c := randF64(128, 96, rng), randF64(96, 112, rng), mat.NewF64(128, 112)
	for _, threads := range []int{1, 3} {
		ctx := NewContext()
		for i := 0; i < 2; i++ {
			if err := ctx.DGEMM(false, false, 1, a, b, 0, c, threads); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(10, func() {
			if err := ctx.DGEMM(false, false, 1, a, b, 0, c, threads); err != nil {
				t.Fatal(err)
			}
		})
		ctx.Close()
		if n != 0 {
			t.Errorf("Context.DGEMM threads=%d: %v allocs/op, want 0", threads, n)
		}
	}
}

// BenchmarkTile is the packed-panel loop in GFLOP/s, each vector tile in
// each precision: the macro-kernel over an already packed 120×256 A block and
// 256×512 B block, storing into C as every KC block after the first does —
// the tile with no packing, barrier or small path around it, as the README
// quotes its peak.
func BenchmarkTile(b *testing.B) {
	for _, name := range []string{"ymm", "zmm"} {
		b.Run(name+"/f32", func(b *testing.B) { benchTile[float32](b, name) })
		b.Run(name+"/f64", func(b *testing.B) { benchTile[float64](b, name) })
	}
}

func benchTile[T float32 | float64](b *testing.B, name string) {
	nr := 0
	for _, vt := range vecTiles[T]() {
		if vt.name == name {
			nr = vt.nr
		}
	}
	if nr == 0 {
		b.Skipf("no %s tile on this machine", name)
	}
	const mc, kc, nc = 120, 256, 512
	rng := rand.New(rand.NewSource(63))
	packedA, packedB := sentinelPanel[T](mc*kc, rng), sentinelPanel[T](kc*nc, rng)
	c := mat.Dense[T]{Rows: mc, Cols: nc, Stride: nc, Data: make([]T, mc*nc)}
	prm := params{MC: mc, KC: kc, NC: nc, MR: vecMR, NR: nr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macroKernel(1, packedA, packedB, 1, c, 0, 0, mc, nc, kc, false, false, prm)
	}
	b.ReportMetric(2*mc*nc*kc*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// TestFallbackTile takes the CPU probe's false branch on any machine: the
// default tile resolves to Go 4×4 in both precisions, the vector tile is
// refused, and the package's reference tests pass on the fallback default.
func TestFallbackTile(t *testing.T) {
	forceGoTile(t)
	for _, p := range []params{defaultParams[float32](), defaultParams[float64]()} {
		if p.MR != goMR || p.NR != goNR {
			t.Fatalf("default tile %dx%d without the vector tile, want %dx%d", p.MR, p.NR, goMR, goNR)
		}
		if err := p.validate(); err != nil {
			t.Fatalf("fallback defaults invalid: %v", err)
		}
	}
	vec := params{MC: 120, KC: 256, NC: 2048, MR: vecMR, NR: vecNR[float32]()}
	if err := vec.validate(); err == nil {
		t.Error("vector tile validated although the probe said no")
	}
	if got := testTiles[float32](); len(got) != 1 {
		t.Fatalf("testTiles = %v, want the Go tile only", got)
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"SGEMMMatchesNaive", TestSGEMMMatchesNaive},
		{"DGEMMMatchesNaive", TestDGEMMMatchesNaive},
		{"TransposeVariants", TestTransposeVariants},
		{"StridedMatrices", TestStridedMatrices},
		{"SSYRKMatchesGEMMReference", TestSSYRKMatchesGEMMReference},
		{"Syr2kSymmetryAndReference", TestSyr2kSymmetryAndReference},
		{"DSYRKMatchesNaiveMatrix", TestDSYRKMatchesNaiveMatrix},
		{"DSYR2KMatchesNaiveMatrix", TestDSYR2KMatchesNaiveMatrix},
		{"ContextReuse", TestContextReuse},
		{"SGEMMZeroAllocSteadyState", TestSGEMMZeroAllocSteadyState},
		{"KernelProperty", TestKernelProperty},
		{"OperandHeaders", TestOperandHeaders},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestYMMTile takes the AVX-512 probe's false branch on a machine where it
// is true: the defaults resolve exactly as on an AVX2-only machine, the ZMM
// tile is refused in both precisions, and the golden hash and the reference
// tests pass on the YMM default. Without AVX-512 the plain run of those tests
// already is this one.
func TestYMMTile(t *testing.T) {
	if !useZMM {
		t.Skip("no ZMM tile on this machine: the default tile is the YMM one already")
	}
	forceNoZMM(t)
	want := params{MC: 120, KC: 256, NC: 2048, MR: 6, NR: 16}
	if got := defaultParams[float32](); got != want {
		t.Fatalf("float32 defaults %+v without the ZMM tile, want %+v", got, want)
	}
	want.NR = 8
	if got := defaultParams[float64](); got != want {
		t.Fatalf("float64 defaults %+v without the ZMM tile, want %+v", got, want)
	}
	zmm := params{MC: 120, KC: 256, NC: 2048, MR: vecMR, NR: zmmNR[float32]()}
	if err := zmm.validate(); err == nil {
		t.Error("6x32 validated although the probe said no")
	}
	zmm.NR = zmmNR[float64]() // 6x16 is float32's YMM tile, float64's ZMM tile
	if err := checkParams[float64](zmm); err == nil {
		t.Error("6x16 float64 accepted although the probe said no")
	}
	if got := testTiles[float32](); len(got) != 2 {
		t.Fatalf("testTiles = %v, want the Go and the YMM tile", got)
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"Golden", TestGolden},
		{"SGEMMMatchesNaive", TestSGEMMMatchesNaive},
		{"DGEMMMatchesNaive", TestDGEMMMatchesNaive},
		{"SSYRKMatchesGEMMReference", TestSSYRKMatchesGEMMReference},
		{"Syr2kSymmetryAndReference", TestSyr2kSymmetryAndReference},
		{"KernelProperty", TestKernelProperty},
		{"PackB", TestPackB},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestTileProbe logs the tiles this machine runs — a green run on a CPU
// without AVX-512 has not exercised the ZMM tile, and the log says so — and
// pins how the probes order them: the ZMM tile implies the YMM tile, and the
// default is the widest tile the machine runs.
func TestTileProbe(t *testing.T) {
	f32, f64 := defaultParams[float32](), defaultParams[float64]()
	// One small-path call that stages op(B)ᵀ on a fresh context: only the
	// assembly form fills the context's staging scratch, so this is what
	// ran, not what the probe promised.
	ctx := NewContext()
	a, c := mat.NewF32(4, 4), mat.NewF32(4, 4)
	if err := ctx.SGEMM(false, true, 1, a, a, 0, c, 1); err != nil {
		t.Fatal(err)
	}
	smallVec := len(ctx.f32.small) > 0
	t.Logf("useVec=%t useZMM=%t smallVec=%t: default tile %dx%d in float32, %dx%d in float64",
		useVec, useZMM, smallVec, f32.MR, f32.NR, f64.MR, f64.NR)
	if smallVec != useVec {
		t.Errorf("the small path ran its assembly: %t, where the vector tile runs: %t", smallVec, useVec)
	}
	if useZMM && !useVec {
		t.Fatal("the ZMM probe passed where the AVX2 one failed")
	}
	want32, want64 := goNR, goNR
	switch {
	case useZMM:
		want32, want64 = 32, 16
	case useVec:
		want32, want64 = 16, 8
	}
	if f32.NR != want32 || f64.NR != want64 {
		t.Errorf("default widths %d/%d, want %d/%d", f32.NR, f64.NR, want32, want64)
	}
}
