package blas

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// TestSyr2kPackedMatchesNaiveMatrix is the exhaustive edge-case matrix for
// the packed SYR2K path, mirroring the SYRK matrix: every supported
// micro-tile × {trans} × {alpha, beta ∈ 0/1/other} × strided operands × n
// values that leave remainders against every blocking boundary, checked
// against the naive reference.
func TestSyr2kPackedMatchesNaiveMatrix(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(40))
	alphas := []float32{0, 1, 1.25}
	betas := []float32{0, 1, -0.5}
	for _, tile := range testTiles[float32]() {
		mr, nr := tile[0], tile[1]
		prm := params{MC: 2 * mr, KC: 10, NC: 2 * nr, MR: mr, NR: nr}
		if err := prm.validate(); err != nil {
			t.Fatalf("tile %dx%d params: %v", mr, nr, err)
		}
		ctx := NewContext()
		defer ctx.Close()
		nDims := []int{1, mr - 1, mr + 1, 2*mr - 1, 2 * mr, 4*mr + 1, 17, 33}
		kDims := []int{1, 9, 10, 11, 21}
		combo := 0
		for _, n := range nDims {
			if n < 1 {
				continue
			}
			for _, k := range kDims {
				trans := combo&1 != 0
				threads := matrixThreads[combo%len(matrixThreads)]
				extra := (combo % 3) * 3 // 0, 3, 6 stride padding
				alpha := alphas[combo%len(alphas)]
				beta := betas[(combo/2)%len(betas)]
				combo++

				ar, ac := n, k
				if trans {
					ar, ac = k, n
				}
				a := stridedF32(ar, ac, extra, rng)
				b := stridedF32(ar, ac, extra, rng)
				c := stridedF32(n, n, extra, rng)
				symmetrise(c)
				want := c.Clone()
				NaiveSSYR2K(trans, alpha, a, b, beta, want)
				if err := drive(ctx, opSyr2k, trans, trans, alpha, *a, *b, beta, *c, threads, prm); err != nil {
					t.Fatalf("tile %dx%d n=%d k=%d trans=%v: %v", mr, nr, n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > 2*tolF32(2*k) {
					t.Errorf("tile %dx%d n=%d k=%d trans=%v threads=%d alpha=%v beta=%v: max diff %v",
						mr, nr, n, k, trans, threads, alpha, beta, d)
				}
				checkPaddingF32(t, c, "syr2k C")
			}
		}
	}
}

// TestDSYR2KMatchesNaiveMatrix runs the double-precision path (packed and
// small) over the same trans × alpha/beta × stride axes.
func TestDSYR2KMatchesNaiveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, limit := range []int{forcePacked, forceSmall} {
		forcePath(t, limit)
		combo := 0
		for _, n := range []int{1, 3, 7, 16, 33} {
			for _, k := range []int{1, 5, 12} {
				trans := combo&1 != 0
				threads := 1 + combo%3
				extra := (combo % 2) * 3
				beta := 0.75
				if combo%4 == 0 {
					beta = 0
				}
				combo++

				ar, ac := n, k
				if trans {
					ar, ac = k, n
				}
				a := stridedF64(ar, ac, extra, rng)
				b := stridedF64(ar, ac, extra, rng)
				c := stridedF64(n, n, extra, rng)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						c.Set(i, j, c.At(j, i))
					}
				}
				want := c.Clone()
				NaiveDSYR2K(trans, -1.5, a, b, beta, want)
				if err := DSYR2K(trans, -1.5, a, b, beta, c, threads); err != nil {
					t.Fatalf("n=%d k=%d trans=%v: %v", n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF64(2*k) {
					t.Errorf("limit=%d n=%d k=%d trans=%v: max diff %v", limit, n, k, trans, d)
				}
			}
		}
	}
}

// TestSyr2kSymmetryAndReference checks the public entry points against a
// two-GEMM reference and pins exact symmetry of the result.
func TestSyr2kSymmetryAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, k    int
		trans   bool
		threads int
	}{
		{5, 7, false, 1}, {16, 4, false, 3}, {33, 17, false, 4},
		{9, 12, true, 2}, {70, 40, false, 3}, {70, 40, true, 2},
	} {
		ar, ac := tc.n, tc.k
		if tc.trans {
			ar, ac = tc.k, tc.n
		}
		a := randF32(ar, ac, rng)
		b := randF32(ar, ac, rng)
		c := randF32(tc.n, tc.n, rng)
		symmetrise(c)
		// Reference: C ← 1.5·op(A)·op(B)ᵀ + 0.5·C, then += 1.5·op(B)·op(A)ᵀ.
		want := c.Clone()
		NaiveSGEMM(tc.trans, !tc.trans, 1.5, a, b, 0.5, want)
		NaiveSGEMM(tc.trans, !tc.trans, 1.5, b, a, 1, want)
		got := c.Clone()
		if err := SSYR2K(tc.trans, 1.5, a, b, 0.5, got, tc.threads); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := got.MaxAbsDiff(want); d > 2*tolF32(2*tc.k) {
			t.Errorf("%+v: max diff %v", tc, d)
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("%+v: asymmetric at (%d,%d)", tc, i, j)
				}
			}
		}
	}
}

// TestSyr2kZeroAllocSteadyState enforces the zero-allocation guarantee of
// the SYR2K Context path and the pooled package path once warm.
func TestSyr2kZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(44))
	a := randF32(128, 96, rng)
	b := randF32(128, 96, rng)
	c := mat.NewF32(128, 128)
	for _, tc := range []struct {
		name    string
		threads int
	}{{"serial", 1}, {"team2", 2}, {"team4", 4}} {
		ctx := NewContext()
		for i := 0; i < 2; i++ { // warm: buffers, team, worker closure
			if err := ctx.SSYR2K(false, 1, a, b, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ctx.SSYR2K(false, 1, a, b, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		})
		ctx.Close()
		if allocs != 0 {
			t.Errorf("Context.SSYR2K %s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	for i := 0; i < 3; i++ { // warm the package pool
		if err := SSYR2K(false, 1, a, b, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := SSYR2K(false, 1, a, b, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled blas.SSYR2K: %v allocs/op, want 0", allocs)
	}
}

func TestSSYR2KValidation(t *testing.T) {
	a := mat.NewF32(4, 3)
	bBad := mat.NewF32(4, 2)
	c := mat.NewF32(4, 4)
	if err := SSYR2K(false, 1, a, bBad, 0, c, 1); err == nil {
		t.Error("mismatched op(B) should error")
	}
	cBad := mat.NewF32(3, 4)
	if err := SSYR2K(false, 1, a, mat.NewF32(4, 3), 0, cBad, 1); err == nil {
		t.Error("non-square C should error")
	}
	if err := DSYR2K(true, 1, mat.NewF64(4, 3), mat.NewF64(4, 3), 0, mat.NewF64(4, 4), 1); err == nil {
		t.Error("transposed dims mismatching C should error")
	}
}

func TestSSYR2KAlphaZero(t *testing.T) {
	a := mat.NewF32(3, 2)
	b := mat.NewF32(3, 2)
	c := mat.NewF32(3, 3)
	c.Fill(4)
	if err := SSYR2K(false, 0, a, b, 0.5, c, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 2 {
		t.Errorf("alpha=0 should scale C by beta: %v", c.At(1, 1))
	}
	if c.At(0, 2) != c.At(2, 0) {
		t.Errorf("alpha=0 result not symmetric: %v vs %v", c.At(0, 2), c.At(2, 0))
	}
}
