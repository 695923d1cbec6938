package blas

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// syrkRef computes the SYRK reference via NaiveSGEMM against Aᵀ.
func syrkRef(trans bool, alpha float32, a *mat.F32, beta float32, c *mat.F32) {
	NaiveSGEMM(trans, !trans, alpha, a, a, beta, c)
}

// symmetrise copies the lower triangle into the upper so the full-GEMM
// reference and the lower-triangle SYRK agree on the beta update.
func symmetrise(c *mat.F32) {
	for i := 0; i < c.Rows; i++ {
		for j := i + 1; j < c.Cols; j++ {
			c.Set(i, j, c.At(j, i))
		}
	}
}

func TestSSYRKMatchesGEMMReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n, k    int
		trans   bool
		threads int
	}{
		{5, 7, false, 1}, {16, 4, false, 3}, {33, 17, false, 4},
		{9, 12, true, 2}, {25, 25, true, 5}, {1, 1, false, 1},
		// Large enough to take the packed path under default params.
		{70, 40, false, 3}, {70, 40, true, 2},
	} {
		var a *mat.F32
		if tc.trans {
			a = randF32(tc.k, tc.n, rng)
		} else {
			a = randF32(tc.n, tc.k, rng)
		}
		c := randF32(tc.n, tc.n, rng)
		symmetrise(c)
		want := c.Clone()
		syrkRef(tc.trans, 1.5, a, 0.5, want)
		got := c.Clone()
		if err := SSYRK(tc.trans, 1.5, a, 0.5, got, tc.threads); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if d := got.MaxAbsDiff(want); d > tolF32(tc.k) {
			t.Errorf("%+v: max diff %v", tc, d)
		}
		// Result must be exactly symmetric.
		for i := 0; i < tc.n; i++ {
			for j := 0; j < i; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("%+v: asymmetric at (%d,%d)", tc, i, j)
				}
			}
		}
	}
}

// TestSyrkPackedMatchesNaiveMatrix is the exhaustive edge-case matrix for
// the packed SYRK path, mirroring TestPackedMatchesNaiveMatrix: every
// supported micro-tile × {trans} × {alpha, beta ∈ 0/1/other} × strided C ×
// n values that leave remainders against every blocking boundary, in both
// precisions (rotating), checked against the naive reference.
func TestSyrkPackedMatchesNaiveMatrix(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(30))
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
		// Dimensions straddling MR/NR/MC/NC boundaries: 1, tile±1, one and
		// two full MC blocks ± 1, and a KC-boundary k set.
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
				c := stridedF32(n, n, extra, rng)
				symmetrise(c)
				want := c.Clone()
				NaiveSSYRK(trans, alpha, a, beta, want)
				if err := drive(ctx, opSyrk, trans, trans, alpha, *a, *a, beta, *c, threads, prm); err != nil {
					t.Fatalf("tile %dx%d n=%d k=%d trans=%v: %v", mr, nr, n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF32(k) {
					t.Errorf("tile %dx%d n=%d k=%d trans=%v threads=%d alpha=%v beta=%v: max diff %v",
						mr, nr, n, k, trans, threads, alpha, beta, d)
				}
				checkPaddingF32(t, c, "syrk C")
			}
		}
	}
}

// TestDSYRKMatchesNaiveMatrix runs the double-precision path (packed and
// small) over the same trans × alpha/beta × stride axes.
func TestDSYRKMatchesNaiveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
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
				c := stridedF64(n, n, extra, rng)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						c.Set(i, j, c.At(j, i))
					}
				}
				want := c.Clone()
				NaiveDSYRK(trans, -1.5, a, beta, want)
				if err := DSYRK(trans, -1.5, a, beta, c, threads); err != nil {
					t.Fatalf("n=%d k=%d trans=%v: %v", n, k, trans, err)
				}
				if d := c.Clone().MaxAbsDiff(want); d > tolF64(k) {
					t.Errorf("limit=%d n=%d k=%d trans=%v: max diff %v", limit, n, k, trans, d)
				}
			}
		}
	}
}

// TestSyrkZeroAllocSteadyState enforces the zero-allocation guarantee of the
// SYRK Context path and the pooled package path once warm.
func TestSyrkZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(33))
	a := randF32(128, 96, rng)
	c := mat.NewF32(128, 128)
	for _, tc := range []struct {
		name    string
		threads int
	}{{"serial", 1}, {"team2", 2}, {"team4", 4}} {
		ctx := NewContext()
		for i := 0; i < 2; i++ { // warm: buffers, team, worker closure
			if err := ctx.SSYRK(false, 1, a, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := ctx.SSYRK(false, 1, a, 0, c, tc.threads); err != nil {
				t.Fatal(err)
			}
		})
		ctx.Close()
		if allocs != 0 {
			t.Errorf("Context.SSYRK %s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
	for i := 0; i < 3; i++ { // warm the package pool
		if err := SSYRK(false, 1, a, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := SSYRK(false, 1, a, 0, c, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("pooled blas.SSYRK: %v allocs/op, want 0", allocs)
	}
}

// TestSyrkGemmInterleavedContext drives one Context through alternating GEMM
// and SYRK calls: the shared buffers and dispatch must not bleed state
// between operations.
func TestSyrkGemmInterleavedContext(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(34))
	ctx := NewContext()
	defer ctx.Close()
	for round := 0; round < 3; round++ {
		n, k := 48+16*round, 33+round
		a := randF32(n, k, rng)
		b := randF32(k, n, rng)
		cg := mat.NewF32(n, n)
		wantG := mat.NewF32(n, n)
		NaiveSGEMM(false, false, 1, a, b, 0, wantG)
		if err := ctx.SGEMM(false, false, 1, a, b, 0, cg, 1+round); err != nil {
			t.Fatal(err)
		}
		if d := cg.MaxAbsDiff(wantG); d > tolF32(k) {
			t.Errorf("round %d gemm: diff %v", round, d)
		}
		cs := mat.NewF32(n, n)
		wantS := mat.NewF32(n, n)
		NaiveSSYRK(false, 2, a, 0, wantS)
		if err := ctx.SSYRK(false, 2, a, 0, cs, 4-round); err != nil {
			t.Fatal(err)
		}
		if d := cs.MaxAbsDiff(wantS); d > tolF32(k) {
			t.Errorf("round %d syrk: diff %v", round, d)
		}
	}
}

func TestSSYRKValidation(t *testing.T) {
	a := mat.NewF32(4, 3)
	cBad := mat.NewF32(3, 4)
	if err := SSYRK(false, 1, a, 0, cBad, 1); err == nil {
		t.Error("non-square C should error")
	}
	if err := DSYRK(true, 1, mat.NewF64(4, 3), 0, mat.NewF64(4, 4), 1); err == nil {
		t.Error("transposed dims mismatching C should error")
	}
}

func TestSSYRKAlphaZero(t *testing.T) {
	a := mat.NewF32(3, 2)
	c := mat.NewF32(3, 3)
	c.Fill(4)
	if err := SSYRK(false, 0, a, 0.5, c, 2); err != nil {
		t.Fatal(err)
	}
	if c.At(1, 1) != 2 {
		t.Errorf("alpha=0 should scale C by beta: %v", c.At(1, 1))
	}
	if c.At(0, 2) != c.At(2, 0) {
		t.Errorf("alpha=0 result not symmetric: %v vs %v", c.At(0, 2), c.At(2, 0))
	}
}

// triangularBands returns threads+1 row boundaries splitting the lower
// triangle of an n×n matrix into bands of roughly equal element count (row i
// carries i+1 elements). It was the pre-packed SSYRK's partitioner; the
// packed path splits per panel with syrkRows instead (TestPartitionProperties),
// so it survives only as the reference the partition tests compare
// intuitions against.
func triangularBands(n, threads int) []int {
	total := float64(n) * float64(n+1) / 2
	bounds := make([]int, threads+1)
	bounds[threads] = n
	row := 0
	var acc float64
	for b := 1; b < threads; b++ {
		target := total * float64(b) / float64(threads)
		for row < n && acc < target {
			row++
			acc += float64(row)
		}
		bounds[b] = row
	}
	return bounds
}

func TestTriangularBands(t *testing.T) {
	for _, tc := range []struct{ n, threads int }{{10, 3}, {100, 8}, {5, 5}, {7, 1}} {
		b := triangularBands(tc.n, tc.threads)
		if len(b) != tc.threads+1 || b[0] != 0 || b[tc.threads] != tc.n {
			t.Fatalf("n=%d t=%d: bounds %v", tc.n, tc.threads, b)
		}
		for i := 1; i <= tc.threads; i++ {
			if b[i] < b[i-1] {
				t.Fatalf("bounds not monotone: %v", b)
			}
		}
		// Element counts roughly balanced (within 2x of ideal for n >> t).
		if tc.n >= 10*tc.threads {
			ideal := float64(tc.n) * float64(tc.n+1) / 2 / float64(tc.threads)
			for i := 1; i <= tc.threads; i++ {
				var count float64
				for r := b[i-1]; r < b[i]; r++ {
					count += float64(r + 1)
				}
				if count > 2*ideal {
					t.Errorf("band %d has %v elements, ideal %v", i, count, ideal)
				}
			}
		}
	}
}

// TestMirrorRangePartition checks the mirror-band split covers every row
// exactly once.
func TestMirrorRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256} {
		for _, parts := range []int{1, 2, 5, 9} {
			next := 0
			for w := 0; w < parts; w++ {
				lo, hi := mirrorRange(n, w, parts)
				if lo != next || hi < lo {
					t.Fatalf("n=%d parts=%d w=%d: band [%d,%d), want start %d", n, parts, w, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d parts=%d: bands cover %d rows", n, parts, next)
			}
		}
	}
}

// mirrorLowerRowwise is the row-by-row mirror mirrorLower replaced, kept as
// the reference the tiled copy is compared with.
func mirrorLowerRowwise[T float32 | float64](c mat.Dense[T], lo, hi int) {
	for i := lo; i < hi; i++ {
		row := c.Data[i*c.Stride : i*c.Stride+c.Cols]
		for j := i + 1; j < c.Cols; j++ {
			row[j] = c.Data[j*c.Stride+i]
		}
	}
}

// TestMirrorLowerTiled compares the tiled mirror with the row-by-row one for
// every [lo, hi) band of every n ≤ 40 (so bands start and end off the tile
// grid and n is mostly not a multiple of the tile) and for a few larger n,
// with Stride > Cols: the same elements written, nothing else touched, and
// the full-range result exactly symmetric.
func TestMirrorLowerTiled(t *testing.T) {
	check := func(n, lo, hi int) {
		src := mat.F32{Rows: n, Cols: n, Stride: n + 3, Data: make([]float32, n*(n+3))}
		for i := range src.Data {
			src.Data[i] = float32(i + 1) // distinct everywhere, padding included
		}
		got, want := cloneView(src), cloneView(src)
		mirrorLower(got, lo, hi)
		mirrorLowerRowwise(want, lo, hi)
		for i, v := range got.Data {
			if v != want.Data[i] {
				t.Fatalf("n=%d band [%d,%d): element (%d,%d) = %v, row-by-row mirror has %v",
					n, lo, hi, i/src.Stride, i%src.Stride, v, want.Data[i])
			}
		}
		if lo == 0 && hi == n {
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if got.At(i, j) != got.At(j, i) {
						t.Fatalf("n=%d: asymmetric at (%d,%d)", n, i, j)
					}
				}
			}
		}
	}
	for n := 1; n <= 40; n++ {
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				check(n, lo, hi)
			}
		}
	}
	for _, n := range []int{63, 64, 65, 100, 257} {
		check(n, 0, n)
		for _, parts := range []int{2, 3, 5} {
			for w := 0; w < parts; w++ {
				lo, hi := mirrorRange(n, w, parts)
				check(n, lo, hi)
			}
		}
	}
}
