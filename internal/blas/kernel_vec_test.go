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
// kernel must write tile[:6·vecNR] and nothing else.
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

// checkVecTile runs one microVec call and compares every accumulator with a
// float64 reference summed in ascending p. NaN and ±Inf must propagate
// exactly as the reference has them.
func checkVecTile[T float32 | float64](t *testing.T, a, b []T, kc int, relTol float64) {
	t.Helper()
	nr := vecNR[T]()
	var f fencedAcc[T]
	f.fill()
	microVec(a, b, kc, &f.tile)
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
	rng := rand.New(rand.NewSource(60))
	nr := vecNR[T]()
	for _, kc := range []int{1, 2, 3, 4, 5, 7, 8, 31, 255, 256, 257} {
		a := sentinelPanel[T](kc*vecMR, rng)
		b := sentinelPanel[T](kc*nr, rng)
		checkVecTile(t, a, b, kc, relTol)

		// Non-finite values inside the panels: a NaN in A poisons its row,
		// an Inf in B its column, in the unrolled body and in the tail.
		for _, p := range []int{0, kc / 2, kc - 1} {
			a2, b2 := append([]T(nil), a...), append([]T(nil), b...)
			a2[p*vecMR+rng.Intn(vecMR)] = T(math.NaN())
			b2[p*nr+rng.Intn(nr)] = T(math.Inf(1 - 2*rng.Intn(2)))
			checkVecTile(t, a2, b2, kc, relTol)
		}
	}
	// A panel shorter than kc steps must panic in Go, before the assembly.
	defer func() {
		if recover() == nil {
			t.Error("short panel did not panic")
		}
	}()
	var f fencedAcc[T]
	microVec(make([]T, 4*vecMR), make([]T, 5*nr-1), 5, &f.tile)
}

func TestVecTileF32(t *testing.T) { testVecTile[float32](t, 1e-6) }
func TestVecTileF64(t *testing.T) { testVecTile[float64](t, 1e-15) }

// TestVecTileF64FMAOrder pins the summation order bit for bit: each lane is
// one fused multiply-add per p, ascending — what math.FMA computes.
func TestVecTileF64FMAOrder(t *testing.T) {
	if !useVec {
		t.Skip("no vector tile on this machine")
	}
	rng := rand.New(rand.NewSource(61))
	const kc, nr = 133, 8
	a := sentinelPanel[float64](kc*vecMR, rng)
	b := sentinelPanel[float64](kc*nr, rng)
	var acc [maxTile]float64
	microVec(a, b, kc, &acc)
	for i := 0; i < vecMR; i++ {
		for j := 0; j < nr; j++ {
			var want float64
			for p := 0; p < kc; p++ {
				want = math.FMA(a[p*vecMR+i], b[p*nr+j], want)
			}
			if got := acc[i*nr+j]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("acc(%d,%d) = %x, want %x", i, j, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestVectorTileZeroAlloc pins the //adsala:zeroalloc contract of the
// dispatch wrapper in both precisions, and the steady-state DGEMM through
// it (the SGEMM/SSYRK/SSYR2K steady-state tests run the float32 tile).
func TestVectorTileZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	if !useVec {
		t.Skip("no vector tile on this machine")
	}
	rng := rand.New(rand.NewSource(62))
	const kc = 64
	a32, b32 := sentinelPanel[float32](kc*vecMR, rng), sentinelPanel[float32](kc*16, rng)
	a64, b64 := sentinelPanel[float64](kc*vecMR, rng), sentinelPanel[float64](kc*8, rng)
	var acc32 [maxTile]float32
	var acc64 [maxTile]float64
	if n := testing.AllocsPerRun(100, func() { microVec(a32, b32, kc, &acc32) }); n != 0 {
		t.Errorf("microVec[float32]: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { microVec(a64, b64, kc, &acc64) }); n != 0 {
		t.Errorf("microVec[float64]: %v allocs/op, want 0", n)
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

// TestFallbackTile takes the CPU probe's false branch on any machine: the
// default tile resolves to Go 4×4 in both precisions, the vector tile is
// refused, and the package's reference tests pass on the fallback default.
func TestFallbackTile(t *testing.T) {
	forceGoTile(t)
	for _, p := range []Params{DefaultParams[float32](), DefaultParams[float64]()} {
		if p.MR != goMR || p.NR != goNR {
			t.Fatalf("default tile %dx%d without the vector tile, want %dx%d", p.MR, p.NR, goMR, goNR)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("fallback defaults invalid: %v", err)
		}
	}
	vec := Params{MC: 120, KC: 256, NC: 2048, MR: vecMR, NR: vecNR[float32]()}
	if err := vec.Validate(); err == nil {
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
