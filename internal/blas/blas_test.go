package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

// tolerances: the blocked kernel reorders additions, so allow accumulation
// slack proportional to k.
func tolF32(k int) float64 { return 1e-4 * float64(k+1) }
func tolF64(k int) float64 { return 1e-12 * float64(k+1) }

func randF32(r, c int, rng *rand.Rand) *mat.F32 {
	m := mat.NewF32(r, c)
	m.FillRandom(rng)
	return m
}

func randF64(r, c int, rng *rand.Rand) *mat.F64 {
	m := mat.NewF64(r, c)
	m.FillRandom(rng)
	return m
}

func TestSGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {4, 4, 4}, {5, 7, 3}, {16, 16, 16},
		{17, 19, 23}, {64, 8, 64}, {1, 100, 1}, {100, 1, 100},
		{33, 257, 65}, {128, 128, 128}, {3, 300, 5},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randF32(m, k, rng)
		b := randF32(k, n, rng)
		c := randF32(m, n, rng)
		want := c.Clone()
		NaiveSGEMM(false, false, 1.25, a, b, 0.5, want)
		for _, threads := range []int{1, 2, 4} {
			got := c.Clone()
			if err := SGEMM(false, false, 1.25, a, b, 0.5, got, threads); err != nil {
				t.Fatalf("%v threads=%d: %v", sh, threads, err)
			}
			if d := got.MaxAbsDiff(want); d > tolF32(k) {
				t.Errorf("shape %v threads=%d: max diff %v > %v", sh, threads, d, tolF32(k))
			}
		}
	}
}

func TestDGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, sh := range [][3]int{{7, 11, 13}, {64, 64, 64}, {129, 65, 33}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randF64(m, k, rng)
		b := randF64(k, n, rng)
		c := randF64(m, n, rng)
		want := c.Clone()
		NaiveDGEMM(false, false, -0.75, a, b, 2.0, want)
		got := c.Clone()
		if err := DGEMM(false, false, -0.75, a, b, 2.0, got, 3); err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		if d := got.MaxAbsDiff(want); d > tolF64(k) {
			t.Errorf("shape %v: max diff %v", sh, d)
		}
	}
}

func TestTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, k, n := 13, 17, 9
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			var a *mat.F32
			if ta {
				a = randF32(k, m, rng)
			} else {
				a = randF32(m, k, rng)
			}
			var b *mat.F32
			if tb {
				b = randF32(n, k, rng)
			} else {
				b = randF32(k, n, rng)
			}
			c := randF32(m, n, rng)
			want := c.Clone()
			NaiveSGEMM(ta, tb, 1, a, b, 1, want)
			got := c.Clone()
			if err := SGEMM(ta, tb, 1, a, b, 1, got, 2); err != nil {
				t.Fatalf("ta=%v tb=%v: %v", ta, tb, err)
			}
			if d := got.MaxAbsDiff(want); d > tolF32(k) {
				t.Errorf("ta=%v tb=%v: max diff %v", ta, tb, d)
			}
		}
	}
}

func TestDimensionMismatch(t *testing.T) {
	a := mat.NewF32(3, 4)
	b := mat.NewF32(5, 6) // inner mismatch
	c := mat.NewF32(3, 6)
	if err := SGEMM(false, false, 1, a, b, 0, c, 1); err == nil {
		t.Error("inner-dimension mismatch should error")
	}
	b2 := mat.NewF32(4, 6)
	cBad := mat.NewF32(2, 6)
	if err := SGEMM(false, false, 1, a, b2, 0, cBad, 1); err == nil {
		t.Error("C shape mismatch should error")
	}
}

func TestAlphaZeroScalesOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randF32(8, 8, rng)
	b := randF32(8, 8, rng)
	c := randF32(8, 8, rng)
	want := c.Clone()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			want.Set(i, j, want.At(i, j)*0.5)
		}
	}
	if err := SGEMM(false, false, 0, a, b, 0.5, c, 2); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > 1e-6 {
		t.Errorf("alpha=0 should only scale C: diff %v", d)
	}
}

func TestBetaZeroOverwritesC(t *testing.T) {
	// beta=0 must overwrite even NaN-free garbage in C.
	rng := rand.New(rand.NewSource(5))
	a := randF32(6, 6, rng)
	b := randF32(6, 6, rng)
	c := mat.NewF32(6, 6)
	c.Fill(1e30)
	want := mat.NewF32(6, 6)
	NaiveSGEMM(false, false, 1, a, b, 0, want)
	if err := SGEMM(false, false, 1, a, b, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > tolF32(6) {
		t.Errorf("beta=0 result differs: %v", d)
	}
}

// TestBetaZeroOverwritesCPacked is the same property on the packed path,
// where it is the store of a register tile that must not read C: interior
// tiles (stored by the assembly), edge and diagonal tiles (storeTile), every
// operation, both precisions, with the rows dealt to one to four parts. C
// starts as NaN and ±Inf, which beta = 0 must overwrite, not scale.
func TestBetaZeroOverwritesCPacked(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testBetaZeroPacked[float32](t, 1e-4) })
	t.Run("float64", func(t *testing.T) { testBetaZeroPacked[float64](t, 1e-12) })
}

func testBetaZeroPacked[T float32 | float64](t *testing.T, relTol float64) {
	rng := rand.New(rand.NewSource(6))
	poison := []T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1))}
	ctx := NewContext()
	defer ctx.Close()
	for _, dims := range [][3]int{{64, 64, 64}, {97, 33, 61}} {
		m, k, n := dims[0], dims[1], dims[2]
		for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
			if op != opGemm {
				n = m
			}
			a, _ := fenced[T](m, k, k, 0, 0, rng)
			b, _ := fenced[T](k, n, n, 0, 0, rng)
			if op != opGemm {
				b, _ = fenced[T](n, k, k, 0, 0, rng)
			}
			// The references compute 0·C, so theirs starts as zeros.
			want := mat.Dense[T]{Rows: m, Cols: n, Stride: n, Data: make([]T, m*n)}
			switch op {
			case opGemm:
				naive(false, false, 0.5, a, b, 0, want)
			case opSyrk:
				naiveSyrk(false, 0.5, a, 0, want)
			default:
				naiveSyr2k(false, 0.5, a, b, 0, want)
			}
			for threads := 1; threads <= 4; threads++ {
				c := mat.Dense[T]{Rows: m, Cols: n, Stride: n, Data: make([]T, m*n)}
				for i := range c.Data {
					c.Data[i] = poison[(i+threads)%len(poison)]
				}
				if err := drive(ctx, op, false, false, 0.5, a, b, 0, c, threads, params{}); err != nil {
					t.Fatal(err)
				}
				for i, got := range c.Data {
					w := float64(want.Data[i])
					if g := float64(got); math.IsNaN(g) || math.Abs(g-w) > relTol*float64(k+1) {
						t.Fatalf("%v %dx%dx%d threads=%d: C(%d,%d) = %v, want %v: beta=0 read C",
							op, m, k, n, threads, i/n, i%n, got, w)
					}
				}
			}
		}
	}
}

func TestEmptyDims(t *testing.T) {
	a := mat.NewF32(0, 4)
	b := mat.NewF32(4, 3)
	c := mat.NewF32(0, 3)
	if err := SGEMM(false, false, 1, a, b, 0, c, 2); err != nil {
		t.Errorf("m=0: %v", err)
	}
	// k=0 means C <- beta*C.
	a2 := mat.NewF32(2, 0)
	b2 := mat.NewF32(0, 3)
	c2 := mat.NewF32(2, 3)
	c2.Fill(4)
	if err := SGEMM(false, false, 1, a2, b2, 0.25, c2, 1); err != nil {
		t.Errorf("k=0: %v", err)
	}
	if c2.At(1, 2) != 1 {
		t.Errorf("k=0 should scale C by beta: got %v", c2.At(1, 2))
	}
}

func TestThreadCountClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randF32(8, 8, rng)
	b := randF32(8, 8, rng)
	want := mat.NewF32(8, 8)
	NaiveSGEMM(false, false, 1, a, b, 0, want)
	for _, threads := range []int{-5, 0, 1, 64, 1000} {
		c := mat.NewF32(8, 8)
		if err := SGEMM(false, false, 1, a, b, 0, c, threads); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if d := c.MaxAbsDiff(want); d > tolF32(8) {
			t.Errorf("threads=%d: diff %v", threads, d)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := defaultParams[float32]()
	if err := good.validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if err := defaultParams[float64]().validate(); err != nil {
		t.Errorf("default float64 params invalid: %v", err)
	}
	bad := good
	bad.MC = 0
	if err := bad.validate(); err == nil {
		t.Error("MC=0 should fail")
	}
	for _, tile := range [][2]int{{8, 8}, {8, 4}, {4, 8}, {6, 4}, {4, 16}} {
		bad = params{MC: 16 * tile[0], KC: 64, NC: 16 * tile[1], MR: tile[0], NR: tile[1]}
		if err := bad.validate(); err == nil {
			t.Errorf("unsupported micro-tile %dx%d should fail", tile[0], tile[1])
		}
	}
	bad = good
	bad.MC = 130 // a multiple of neither MR
	if err := bad.validate(); err == nil {
		t.Error("MC not multiple of MR should fail")
	}
	bad = good
	bad.NC = 2050
	if err := bad.validate(); err == nil {
		t.Error("NC not multiple of NR should fail")
	}
	for _, tile := range append(testTiles[float32](), testTiles[float64]()...) {
		p := params{MC: 16 * tile[0], KC: 64, NC: 16 * tile[1], MR: tile[0], NR: tile[1]}
		if err := p.validate(); err != nil {
			t.Errorf("tile %dx%d should validate: %v", tile[0], tile[1], err)
		}
	}
}

// TestResolveParams pins what drive skips: the default blocking spelled out
// is taken as the default and passes checkParams on every tile set the
// probes can pick, and only an explicit other blocking is checked (drive
// takes the zero params as the default before it calls resolveParams).
func TestResolveParams(t *testing.T) {
	check := func(t *testing.T) {
		t.Helper()
		resolveCase[float32](t)
		resolveCase[float64](t)
	}
	check(t)
	t.Run("ymm", func(t *testing.T) { forceNoZMM(t); check(t) })
	t.Run("go", func(t *testing.T) { forceGoTile(t); check(t) })
}

func resolveCase[T float32 | float64](t *testing.T) {
	t.Helper()
	def := defaultParams[T]()
	if err := checkParams[T](def); err != nil {
		t.Errorf("%T default blocking %+v fails its check: %v", T(0), def, err)
	}
	if isDef, err := resolveParams[T](def); !isDef || err != nil {
		t.Errorf("%T resolveParams(%+v) = %v, %v; want the default", T(0), def, isDef, err)
	}
	other := def
	other.KC /= 2
	if isDef, err := resolveParams[T](other); isDef || err != nil {
		t.Errorf("%T resolveParams(%+v) = %v, %v; want it explicit and valid", T(0), other, isDef, err)
	}
	bad := def
	bad.MC++
	if _, err := resolveParams[T](bad); err == nil || err.Error() != checkParams[T](bad).Error() {
		t.Errorf("%T resolveParams(%+v) error %v, want checkParams' %v", T(0), bad, err, checkParams[T](bad))
	}
}

func TestCustomParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randF32(50, 70, rng)
	b := randF32(70, 40, rng)
	want := mat.NewF32(50, 40)
	NaiveSGEMM(false, false, 1, a, b, 0, want)
	p := params{MC: 16, KC: 8, NC: 12, MR: 4, NR: 4}
	c := mat.NewF32(50, 40)
	ctx := NewContext()
	defer ctx.Close()
	if err := drive(ctx, opGemm, false, false, 1, *a, *b, 0, *c, 3, p); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d > tolF32(70) {
		t.Errorf("custom params diff %v", d)
	}
}

// Property: parallel result equals serial result exactly (same summation
// order regardless of team size, since block ownership is deterministic).
func TestParallelDeterminismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(mRaw, kRaw, nRaw, tRaw uint8) bool {
		m, k, n := 1+int(mRaw%40), 1+int(kRaw%40), 1+int(nRaw%40)
		threads := 1 + int(tRaw%8)
		a := randF32(m, k, rng)
		b := randF32(k, n, rng)
		c1 := mat.NewF32(m, n)
		c2 := mat.NewF32(m, n)
		if SGEMM(false, false, 1, a, b, 0, c1, 1) != nil {
			return false
		}
		if SGEMM(false, false, 1, a, b, 0, c2, threads) != nil {
			return false
		}
		return c1.MaxAbsDiff(c2) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: GEMM is linear in alpha: gemm(2a) == 2*gemm(a) with beta=0.
func TestAlphaLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(mRaw, kRaw, nRaw uint8) bool {
		m, k, n := 1+int(mRaw%24), 1+int(kRaw%24), 1+int(nRaw%24)
		a := randF64(m, k, rng)
		b := randF64(k, n, rng)
		c1 := mat.NewF64(m, n)
		c2 := mat.NewF64(m, n)
		if DGEMM(false, false, 1, a, b, 0, c1, 2) != nil {
			return false
		}
		if DGEMM(false, false, 2, a, b, 0, c2, 2) != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				d := c2.At(i, j) - 2*c1.At(i, j)
				if d > 1e-10 || d < -1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStridedMatrices(t *testing.T) {
	// Matrices whose stride exceeds cols (submatrix views).
	rng := rand.New(rand.NewSource(10))
	a := &mat.F32{Rows: 9, Cols: 7, Stride: 12, Data: make([]float32, 9*12)}
	b := &mat.F32{Rows: 7, Cols: 5, Stride: 9, Data: make([]float32, 7*9)}
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			a.Set(i, j, float32(rng.NormFloat64()))
		}
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			b.Set(i, j, float32(rng.NormFloat64()))
		}
	}
	c := &mat.F32{Rows: 9, Cols: 5, Stride: 11, Data: make([]float32, 9*11)}
	want := mat.NewF32(9, 5)
	NaiveSGEMM(false, false, 1, a, b, 0, want)
	if err := SGEMM(false, false, 1, a, b, 0, c, 2); err != nil {
		t.Fatal(err)
	}
	if d := c.Clone().MaxAbsDiff(want); d > tolF32(7) {
		t.Errorf("strided diff %v", d)
	}
	// Elements outside the logical region must be untouched.
	for i := 0; i < 9; i++ {
		for j := 5; j < 11; j++ {
			if c.Data[i*11+j] != 0 {
				t.Fatalf("GEMM wrote outside C at (%d,%d)", i, j)
			}
		}
	}
}
