package blas

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// smallVecCases is the number of seeded shapes TestSmallVecBits runs per
// op and precision.
const smallVecCases = 10000

// TestSmallVecBits pins the vector small path to the Go loops bit for bit:
// every shape under the gate (m·n·k ≤ 512, SYR2K n·n·⌈k/2⌉ ≤ 512), every
// transpose flag, padded strides, alpha and beta from {0, 1, −1, 0.5} and
// a NaN (which pins the operand order of a ⊗ alpha and c ⊗ beta), and
// operands that carry NaNs with distinct payloads — often in both operands
// of a product, and in C under beta — ±Inf, −0 and subnormals. The results
// are compared as bits over the whole of C's backing array, padding
// included. Under -race a NaN need only meet a NaN: the instrumented build
// spills the loops' sums and gc then emits some adds with the other operand
// first (prod + sum for sum += prod), so the oracle's payloads are those of
// another loop.
func TestSmallVecBits(t *testing.T) {
	if !useVec {
		t.Skip("no vector tile on this CPU")
	}
	t.Run("f32", func(t *testing.T) { testSmallVecBits[float32](t, 90) })
	t.Run("f64", func(t *testing.T) { testSmallVecBits[float64](t, 91) })
}

func testSmallVecBits[T float32 | float64](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := NewContext()
	defer ctx.Close()
	scalars := [...]T{0, 1, -1, 0.5, T(math.Float32frombits(0x7fc0a5a5))}
	for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
		for i := 0; i < smallVecCases; i++ {
			m, n, k := smallVecShape(op, rng)
			transA, transB := i&1 != 0, i&2 != 0
			if op != opGemm {
				transB = transA
			}
			alpha, beta := scalars[rng.Intn(len(scalars))], scalars[rng.Intn(len(scalars))]
			special := [...]float64{0, 0.02, 0.25}[rng.Intn(3)]
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
			switch op {
			case opGemm:
				smallGemm(transA, transB, alpha, a, b, beta, want, m, n, k)
			case opSyrk:
				smallSyrk(transA, alpha, a, beta, want, n, k)
			default:
				smallSyr2k(transA, alpha, a, b, beta, want, n, k)
			}
			if op != opGemm {
				mirrorLower(want, 0, n)
			}
			smallVec(ctx, op, transA, transB, alpha, a, b, beta, got, m, n, k)
			for e := range want.Data {
				g, w := got.Data[e], want.Data[e]
				if bitsOf(g) != bitsOf(w) && !(raceEnabled && g != g && w != w) {
					t.Fatalf("%v m=%d n=%d k=%d transA=%v transB=%v alpha=%v beta=%v strides a%d b%d c%d: element %d (row %d, col %d) is %#x, the loop's %#x",
						op, m, n, k, transA, transB, alpha, beta, a.Stride, b.Stride, want.Stride,
						e, e/want.Stride, e%want.Stride, bitsOf(got.Data[e]), bitsOf(want.Data[e]))
				}
			}
		}
	}
}

// smallVecShape draws a shape under the small path's gate for op: each
// dimension log-uniform in [1, 512], so both tiny squares and the 1×1×512
// extremes come up; the symmetric updates have m = n.
func smallVecShape(op opKind, rng *rand.Rand) (m, n, k int) {
	dim := func() int { return int(math.Exp(rng.Float64() * math.Log(513))) }
	for {
		m, n, k = dim(), dim(), dim()
		kSmall := k
		if op != opGemm {
			n = m
			if op == opSyr2k {
				kSmall = (k + 1) / 2
			}
		}
		if m*n*kSmall <= 512 {
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
