package blas

// Golden hashes of the whole kernel stack. TestKernelProperty compares the
// kernels with the naive references by tolerance and with themselves across
// thread counts; neither notices a change of summation order that stays inside
// the tolerance. This test does: it hashes the exact bits of seeded GEMM, SYRK
// and SYR2K outputs — padding included — through the exported entry points,
// and compares with constants computed once and committed. A refactor that
// claims "bit-identical to the parent" is checked by running this unchanged on
// both sides.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// One constant per micro-tile: the vector tile rounds once per multiply-add,
// the Go tile twice, so their results differ in the last bits. Both cover the
// same cases, small path included. The small path computes the packed tile's
// bits on either host, so each constant is also the hash of the packed path
// alone (the small path forced shut).
const (
	goldenVecTile uint64 = 0x7658a406faf5937d
	goldenGoTile  uint64 = 0x203423148aa9ebc5
)

// goldenShapes are (m, k, n) triples on both sides of the Go pass's 8³ gate
// and of every tile and block edge: MR ∈ {4, 6}, NR ∈ {4, 8, 16}, MC = 120,
// KC = 256 under default blocking, and the shrunk blocking of goldenParams,
// whose NC puts several jc panels inside each shape. Symmetric updates use
// (m, k) only.
var goldenShapes = [][3]int{
	{1, 1, 1}, {2, 3, 1}, {7, 7, 7}, {8, 8, 8}, {9, 9, 9}, {8, 9, 8},
	{3, 300, 5}, {5, 9, 17}, {6, 10, 16}, {7, 11, 15}, {13, 1, 33},
	{17, 257, 15}, {61, 31, 97}, {119, 64, 130}, {121, 255, 33}, {250, 40, 129},
}

var (
	goldenAlphas = [...]float64{1, 0.5, -2}
	goldenBetas  = [...]float64{0, 1, 0.25}
)

// mulAddFuses reports whether this build rounds x*y + z once. gc does on
// arm64, ppc64le, s390x, riscv64 and amd64 at GOAMD64=v3; the Go-tile
// constant was computed without fusing and is asserted only where that holds.
func mulAddFuses() bool {
	x := fuseProbe[0]
	return x*x+fuseProbe[1] != 0
}

// 1+2⁻²⁷ squared is 1+2⁻²⁶+2⁻⁵⁴, which rounds to 1+2⁻²⁶: unfused the sum
// below is exactly zero, fused it is 2⁻⁵⁴. A variable so nothing folds.
var fuseProbe = [2]float64{1 + 1.0/(1<<27), -(1 + 1.0/(1<<26))}

// goldenMatrix builds an r×c operand with extra stride padding, standard
// normal content and sentinel padding.
func goldenMatrix[T float32 | float64](r, c, extra int, rng *rand.Rand) *mat.Dense[T] {
	m := &mat.Dense[T]{Rows: r, Cols: c, Stride: c + extra, Data: make([]T, r*(c+extra))}
	for i := range m.Data {
		m.Data[i] = T(sentinelF64)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, T(rng.NormFloat64()))
		}
	}
	return m
}

// goldenCall runs one op through drive under blocking prm. The symmetric
// updates take their one transpose flag as both, as their entry points pass
// it.
func goldenCall[T float32 | float64](ctx *Context, prm params, op opKind, transA, transB bool, alpha T, a, b *mat.Dense[T], beta T, c *mat.Dense[T], threads int) error {
	if op != opGemm {
		transB = transA
	}
	return drive(ctx, op, transA, transB, alpha, *a, *b, beta, *c, threads, prm)
}

// goldenParams is blocking shrunk until MC, KC and NC boundaries — several of
// each — land inside the golden shapes.
func goldenParams[T float32 | float64]() params {
	p := defaultParams[T]()
	p.MC, p.KC, p.NC = 2*p.MR, 10, 2*p.NR
	return p
}

// goldenSum feeds h the bits of every element of every output: each shape ×
// op × transpose combination, under default and shrunk blocking, at threads
// 1–4, with α, β and the three operands' stride padding rotating so every
// (α, β) pair meets every op.
func goldenSum[T float32 | float64](t *testing.T, h hash.Hash64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var word [8]byte
	combo := 0
	for _, prm := range []params{{}, goldenParams[T]()} {
		ctx := NewContext()
		defer ctx.Close()
		for _, sh := range goldenShapes {
			for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
				for tr := 0; tr < 4; tr++ {
					transA, transB := tr&1 != 0, tr&2 != 0
					if op != opGemm && transB {
						continue // the symmetric updates have one transpose flag
					}
					m, k, n := sh[0], sh[1], sh[2]
					alpha := T(goldenAlphas[combo%3])
					beta := T(goldenBetas[combo/3%3])
					extra := [3]int{combo % 3 * 3, combo / 2 % 3 * 2, combo / 5 % 3}
					combo++

					ar, ac := m, k
					if transA {
						ar, ac = k, m
					}
					br, bc := k, n
					if transB {
						br, bc = n, k
					}
					if op != opGemm { // C is m×m and B is shaped like A
						n, br, bc = m, ar, ac
					}
					a := goldenMatrix[T](ar, ac, extra[0], rng)
					b := goldenMatrix[T](br, bc, extra[1], rng)
					c0 := goldenMatrix[T](m, n, extra[2], rng)
					for threads := 1; threads <= 4; threads++ {
						c := &mat.Dense[T]{Rows: m, Cols: n, Stride: c0.Stride, Data: append([]T(nil), c0.Data...)}
						if err := goldenCall(ctx, prm, op, transA, transB, alpha, a, b, beta, c, threads); err != nil {
							t.Fatalf("%v %v ta=%v tb=%v threads=%d: %v", op, sh, transA, transB, threads, err)
						}
						for _, v := range c.Data {
							binary.LittleEndian.PutUint64(word[:], bitsOf(v))
							h.Write(word[:])
						}
					}
				}
			}
		}
	}
}

func goldenHash(t *testing.T) uint64 {
	h := fnv.New64a()
	goldenSum[float32](t, h, 80)
	goldenSum[float64](t, h, 81)
	return h.Sum64()
}

func TestGolden(t *testing.T) {
	t.Run("vec", func(t *testing.T) {
		if !useVec {
			t.Skip("no vector tile on this CPU")
		}
		if got := goldenHash(t); got != goldenVecTile {
			t.Errorf("vector-tile golden hash %#016x, want %#016x", got, goldenVecTile)
		}
	})
	t.Run("go", func(t *testing.T) {
		if mulAddFuses() {
			t.Skip("this build fuses multiply-add; the constant is for two roundings")
		}
		forceGoTile(t)
		if got := goldenHash(t); got != goldenGoTile {
			t.Errorf("Go-tile golden hash %#016x, want %#016x", got, goldenGoTile)
		}
	})
}
