package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// smallBitsCases is the number of seeded shapes TestSmallBits runs per host,
// op and precision; -short (the race detector's run, where the instrumented
// packed path is ten times slower) runs the first fifth.
const smallBitsCases = 10000

// TestSmallBits pins the small path to the packed path bit for bit, on the
// vector unit ("vec") and with the Go tile ("go"): every call is made twice
// through drive, once as the gate sends it and once with the small path
// forced shut, and the two results are compared over the whole of C's
// backing array, padding included. The shapes cover each op's whole gate on
// that host, k on both sides of defaultKC (above it the gate must send the
// call to the packed path); every transpose flag, padded strides, 1–3
// threads, alpha and beta from {0, 1, −1, 0.5} and a NaN (which pins the
// operand order of alpha ⊗ acc and c ⊗ beta), and operands that carry NaNs
// with distinct payloads — often in both operands of a product, and in C
// under beta — ±Inf, −0 and subnormals.
//
// On the vector unit every element must match as bits, NaN payloads
// included: the assembly fixes each product's operand order. The Go pass
// computes the Go tile's arithmetic, but gc chooses the operand order of
// each Go product, and with it which payload a NaN result carries; so there
// non-NaN elements must match as bits and NaNs as NaNs.
func TestSmallBits(t *testing.T) {
	t.Run("vec", func(t *testing.T) {
		if !useVec {
			t.Skip("no vector tile on this CPU")
		}
		t.Run("f32", func(t *testing.T) { testSmallBits[float32](t, 90) })
		t.Run("f64", func(t *testing.T) { testSmallBits[float64](t, 91) })
	})
	t.Run("go", func(t *testing.T) {
		forceGoTile(t)
		t.Run("f32", func(t *testing.T) { testSmallBits[float32](t, 90) })
		t.Run("f64", func(t *testing.T) { testSmallBits[float64](t, 91) })
	})
}

func testSmallBits[T float32 | float64](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := NewContext()
	defer ctx.Close()
	scalars := [...]T{0, 1, -1, 0.5, T(math.Float32frombits(0x7fc0a5a5))}
	gate := smallShapeLimit
	host := 0
	if useVec {
		host = 1
	}
	cases := smallBitsCases
	if testing.Short() {
		cases /= 5
	}
	for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
		small := 0
		for i := 0; i < cases; i++ {
			m, n, k := smallBitsShape(gate[host][op], op, rng)
			transA, transB := i&1 != 0, i&2 != 0
			if op != opGemm {
				transB = transA
			}
			alpha, beta := scalars[rng.Intn(len(scalars))], scalars[rng.Intn(len(scalars))]
			special := [...]float64{0, 0.02, 0.25}[rng.Intn(3)]
			threads := 1 + rng.Intn(3)
			ar, ac := m, k
			if transA {
				ar, ac = k, m
			}
			br, bc := k, n
			if transB {
				br, bc = n, k
			}
			if op != opGemm {
				br, bc = ar, ac
			}
			a := specialView[T](ar, ac, rng.Intn(4), special, rng)
			b := specialView[T](br, bc, rng.Intn(4), special, rng)
			want := specialView[T](m, n, rng.Intn(4), special, rng)
			got := cloneView(want)
			smallShapeLimit = limitsAll(forcePacked)
			err := drive(ctx, op, transA, transB, alpha, a, b, beta, want, threads, params{})
			smallShapeLimit = gate
			if err != nil {
				t.Fatal(err)
			}
			if smallShape(op, m, n, k) {
				small++
			}
			if err := drive(ctx, op, transA, transB, alpha, a, b, beta, got, threads, params{}); err != nil {
				t.Fatal(err)
			}
			for e := range want.Data {
				g, w := got.Data[e], want.Data[e]
				if bitsOf(g) == bitsOf(w) || !useVec && g != g && w != w {
					continue
				}
				t.Fatalf("%v m=%d n=%d k=%d transA=%v transB=%v alpha=%v beta=%v strides a%d b%d c%d: element %d (row %d, col %d) is %#x, the packed path's %#x",
					op, m, n, k, transA, transB, alpha, beta, a.Stride, b.Stride, want.Stride,
					e, e/want.Stride, e%want.Stride, bitsOf(g), bitsOf(w))
			}
		}
		// The gate must have sent most shapes to the small path, or this
		// compared the packed path with itself.
		if small < cases*3/4 {
			t.Errorf("%v: %d of %d shapes took the small path", op, small, cases)
		}
	}
}

// smallBitsShape draws a shape under an m·n·k limit for op: k log-uniform
// in [1, 2·defaultKC], so it lands on both sides of defaultKC, and m and n
// log-uniform in [1, limit], so tiny squares and the 1×limit×1 extremes come
// up; the symmetric updates have m = n. The product is taken in float64, as
// smallShape takes it: at the Go tile's 20³ limit an int32 m·n·k wraps, and
// GOARCH=386 drew 3007×3834 GEMMs.
func smallBitsShape(limit int, op opKind, rng *rand.Rand) (m, n, k int) {
	dim := func(hi int) int { return int(math.Exp(rng.Float64() * math.Log(float64(hi)+1))) }
	for {
		m, n, k = dim(limit), dim(limit), dim(2*defaultKC)
		if op != opGemm {
			n = m
		}
		if float64(m)*float64(n)*float64(k) <= float64(limit) {
			return m, n, k
		}
	}
}

// specialView is an r×c view with extra padding columns; each element, the
// padding too, is a standard normal or, with probability special, one of: a
// NaN with a random payload and sign (quiet or signalling, three times as
// likely as the rest), ±Inf, −0 or a subnormal.
func specialView[T float32 | float64](r, c, extra int, special float64, rng *rand.Rand) mat.Dense[T] {
	v := mat.Dense[T]{Rows: r, Cols: c, Stride: c + extra, Data: make([]T, r*(c+extra))}
	for i := range v.Data {
		v.Data[i] = specialValue[T](special, rng)
	}
	return v
}

func specialValue[T float32 | float64](special float64, rng *rand.Rand) T {
	if rng.Float64() >= special {
		return T(rng.NormFloat64())
	}
	var z T
	_, single := any(z).(float32)
	switch rng.Intn(7) {
	case 0, 1, 2:
		if single {
			payload := uint32(1 + rng.Intn(1<<23-1))
			return T(math.Float32frombits(0x7f800000 | payload | uint32(rng.Intn(2))<<31))
		}
		payload := uint64(1 + rng.Int63n(1<<52-1))
		return T(math.Float64frombits(0x7ff0000000000000 | payload | uint64(rng.Intn(2))<<63))
	case 3:
		return T(math.Inf(1 - 2*rng.Intn(2)))
	case 4:
		return T(math.Copysign(0, -1))
	}
	// A subnormal of either sign.
	if single {
		return T(math.Float32frombits(uint32(1+rng.Intn(1<<23-1)) | uint32(rng.Intn(2))<<31))
	}
	return T(math.Float64frombits(uint64(1+rng.Int63n(1<<52-1)) | uint64(rng.Intn(2))<<63))
}

// TestSmallScratchBound holds the staging bounds small.go states for the
// vector unit's gate: the most scratch one call stages, over every (n, k)
// the gate admits (m = 1 for GEMM; SYR2K stages its two lane operands one
// after the other in the same scratch), in both precisions; and a GEMM at
// the worst shape, k = 1 with a padded B, grows a fresh Context's scratch to
// exactly that.
func TestSmallScratchBound(t *testing.T) {
	for _, tc := range []struct {
		op       opKind
		f32, f64 int // bytes
	}{{opGemm, 128 << 10, 128 << 10}, {opSyrk, 16 << 10, 49 << 9}, {opSyr2k, 16 << 10, 49 << 9}} {
		if got := maxStaged[float32](tc.op); got != tc.f32 {
			t.Errorf("%v float32: at most %d bytes staged, small.go states %d", tc.op, got, tc.f32)
		}
		if got := maxStaged[float64](tc.op); got != tc.f64 {
			t.Errorf("%v float64: at most %d bytes staged, small.go states %d", tc.op, got, tc.f64)
		}
	}
	if !useVec {
		return // the Go pass stages nothing
	}
	n := smallShapeLimit[1][opGemm]
	a, c := mat.NewF32(1, 1), mat.NewF32(1, n)
	b := &mat.F32{Rows: n, Cols: 1, Stride: 2, Data: make([]float32, 2*n-1)}
	ctx := NewContext()
	defer ctx.Close()
	if err := ctx.SGEMM(false, true, 1, a, b, 0, c, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(ctx.f32.small) * 4; got != 128<<10 {
		t.Errorf("GEMM 1×%d×1 with transB staged %d bytes, want %d", n, got, 128<<10)
	}
}

// maxStaged is the most scratch, in bytes, a call of op under the vector
// unit's gate stages for its lane operand.
func maxStaged[T float32 | float64](op opKind) (most int) {
	limit := smallShapeLimit[1][op]
	for n := 1; ; n++ {
		m := 1
		if op != opGemm {
			m = n
		}
		if m*n > limit {
			return most
		}
		for k := 1; k <= defaultKC && m*n*k <= limit; k++ {
			most = max(most, staged[T](2, n, k)*sizeOf[T]())
		}
	}
}
