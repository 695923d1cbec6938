package blas

// Seeded differential test of the whole kernel stack: random shapes, strides,
// transposes, scalars and blocking through every op × precision × tile ×
// thread count, checked against the naive references, for exact symmetry,
// for untouched padding, and for bit-identity across thread counts. It runs
// on the generic driver directly, so one body serves both precisions. The
// operand-header table test sits here too: it is the same stack's answer to
// inputs no generator should produce.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mat"
)

// randView builds an r×c operand with a random Stride ≥ Cols, standard
// normal content and sentinel padding; the data ends at the last used
// element, the shortest valid header.
func randView[T float32 | float64](r, c int, rng *rand.Rand) mat.Dense[T] {
	stride := c + rng.Intn(3)*rng.Intn(9)
	v := mat.Dense[T]{Rows: r, Cols: c, Stride: stride, Data: make([]T, (r-1)*stride+c)}
	for i := range v.Data {
		v.Data[i] = T(sentinelF64)
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v.Data[i*stride+j] = T(rng.NormFloat64())
		}
	}
	return v
}

func cloneView[T float32 | float64](v mat.Dense[T]) mat.Dense[T] {
	v.Data = append([]T(nil), v.Data...)
	return v
}

func bitsOf[T float32 | float64](x T) uint64 {
	if f, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(x))
}

// randDim draws a dimension in [1, 300], biased towards the values that
// break tiles: below MR/NR, primes, and just past a block boundary.
func randDim(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 1 + rng.Intn(17)
	case 1:
		return [...]int{2, 3, 5, 7, 13, 31, 61, 127, 131, 251, 257, 293}[rng.Intn(12)]
	}
	return 1 + rng.Intn(300)
}

func randScalar[T float32 | float64](rng *rand.Rand) T {
	return [...]T{0, 1, -1, T(rng.NormFloat64())}[rng.Intn(4)]
}

type propCase[T float32 | float64] struct {
	op             opKind
	transA, transB bool
	alpha, beta    T
	a, b, c        mat.Dense[T]
	nanC           bool // beta = 0 over a NaN-filled C: C must not be read
}

func (pc *propCase[T]) String() string {
	m, k := opDims(pc.a, pc.transA)
	return fmt.Sprintf("%v m=%d k=%d n=%d ta=%v tb=%v alpha=%v beta=%v nanC=%v strides=%d/%d/%d",
		pc.op, m, k, pc.c.Cols, pc.transA, pc.transB, pc.alpha, pc.beta, pc.nanC, pc.a.Stride, pc.b.Stride, pc.c.Stride)
}

func randCase[T float32 | float64](op opKind, rng *rand.Rand) *propCase[T] {
	m, k, n := randDim(rng), randDim(rng), randDim(rng)
	pc := &propCase[T]{op: op, transA: rng.Intn(2) == 0, transB: rng.Intn(2) == 0,
		alpha: randScalar[T](rng), beta: randScalar[T](rng)}
	dims := func(r, c int, trans bool) (int, int) {
		if trans {
			return c, r
		}
		return r, c
	}
	if op != opGemm {
		n, pc.transB = m, pc.transA
	}
	ar, ac := dims(m, k, pc.transA)
	pc.a = randView[T](ar, ac, rng)
	if op == opGemm {
		br, bc := dims(k, n, pc.transB)
		pc.b = randView[T](br, bc, rng)
	} else {
		pc.b = randView[T](ar, ac, rng)
	}
	pc.c = randView[T](m, n, rng)
	if op != opGemm { // symmetric input, as the references assume
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				pc.c.Data[i*pc.c.Stride+j] = pc.c.Data[j*pc.c.Stride+i]
			}
		}
	}
	pc.nanC = pc.beta == 0 && rng.Intn(2) == 0
	return pc
}

func (pc *propCase[T]) run(ctx *Context, c mat.Dense[T], threads int, prm params) error {
	return drive(ctx, pc.op, pc.transA, pc.transB, pc.alpha, pc.a, pc.b, pc.beta, c, threads, prm)
}

func (pc *propCase[T]) reference() mat.Dense[T] {
	want := cloneView(pc.c)
	switch pc.op {
	case opSyrk:
		naiveSyrk(pc.transA, pc.alpha, pc.a, pc.beta, want)
	case opSyr2k:
		naiveSyr2k(pc.transA, pc.alpha, pc.a, pc.b, pc.beta, want)
	default:
		naive(pc.transA, pc.transB, pc.alpha, pc.a, pc.b, pc.beta, want)
	}
	return want
}

// input returns the C a run starts from: the case's C, its logical region
// NaN-filled when the case says C must not be read.
func (pc *propCase[T]) input() mat.Dense[T] {
	c := cloneView(pc.c)
	if pc.nanC {
		for i := 0; i < c.Rows; i++ {
			for j := 0; j < c.Cols; j++ {
				c.Data[i*c.Stride+j] = T(math.NaN())
			}
		}
	}
	return c
}

func testKernelProperty[T float32 | float64](t *testing.T, seed int64, eps float64) {
	rng := rand.New(rand.NewSource(seed))
	ctx := NewContext()
	defer ctx.Close()
	cases := 10
	if testing.Short() {
		cases = 3
	}
	for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
		for i := 0; i < cases; i++ {
			pc := randCase[T](op, rng)
			want := pc.reference()
			_, k := opDims(pc.a, pc.transA)
			tol := eps * float64(k+8) * (math.Abs(float64(pc.alpha)) + math.Abs(float64(pc.beta)) + 1)
			if op == opSyr2k {
				tol *= 2
			}
			for _, tile := range testTiles[T]() {
				// Default blocking (small shapes take the no-packing path), or
				// blocks shrunk until their boundaries land inside the shape.
				prm := defaultParams[T]()
				prm.MR, prm.NR = tile[0], tile[1]
				if rng.Intn(2) == 0 {
					prm = params{MC: tile[0] * (1 + rng.Intn(4)), KC: 1 + rng.Intn(48), NC: tile[1] * (1 + rng.Intn(4)), MR: tile[0], NR: tile[1]}
				}
				var serial mat.Dense[T]
				for _, threads := range []int{1, 2, 3, 5, 8} {
					got := pc.input()
					if err := pc.run(ctx, got, threads, prm); err != nil {
						t.Fatalf("%v %+v threads=%d: %v", pc, prm, threads, err)
					}
					if threads == 1 {
						serial = got
						checkAgainst(t, pc, prm, got, want, tol)
						continue
					}
					for j, v := range got.Data {
						if bitsOf(v) != bitsOf(serial.Data[j]) {
							t.Fatalf("%v %+v threads=%d: element %d differs from the serial result (%v vs %v)", pc, prm, threads, j, v, serial.Data[j])
						}
					}
				}
			}
		}
	}
}

// checkAgainst compares one result with the reference: logical region within
// tol, padding untouched, and symmetric updates exactly symmetric.
func checkAgainst[T float32 | float64](t *testing.T, pc *propCase[T], prm params, got, want mat.Dense[T], tol float64) {
	t.Helper()
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := float64(got.At(i, j)), float64(want.At(i, j))
			if math.IsNaN(g) || math.Abs(g-w) > tol {
				t.Fatalf("%v %+v: C(%d,%d) = %v, want %v (tol %g)", pc, prm, i, j, g, w, tol)
			}
			if pc.op != opGemm && bitsOf(got.At(i, j)) != bitsOf(got.At(j, i)) {
				t.Fatalf("%v %+v: asymmetric at (%d,%d)", pc, prm, i, j)
			}
		}
		if i < got.Rows-1 {
			for j := got.Cols; j < got.Stride; j++ {
				if float64(got.Data[i*got.Stride+j]) != float64(T(sentinelF64)) {
					t.Fatalf("%v %+v: wrote outside C at (%d,%d)", pc, prm, i, j)
				}
			}
		}
	}
}

func TestKernelProperty(t *testing.T) {
	t.Run("f32", func(t *testing.T) { testKernelProperty[float32](t, 70, 2e-6) })
	t.Run("f64", func(t *testing.T) { testKernelProperty[float64](t, 71, 4e-15) })
}

// TestOperandHeaders: a header the kernels would index out of range with is
// an error naming operand and field, for every operand × defect × op ×
// precision — on the packed path it would otherwise panic on a team worker,
// where no caller can recover. The shortest valid strided view is accepted.
func TestOperandHeaders(t *testing.T) {
	t.Run("f32", testOperandHeaders[float32])
	t.Run("f64", testOperandHeaders[float64])
}

func testOperandHeaders[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ctx := NewContext()
	defer ctx.Close()
	const n, k = 40, 24 // packed under default blocking, several tiles per worker
	for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
		for _, threads := range []int{1, 3} {
			fresh := func() *propCase[T] {
				pc := &propCase[T]{op: op, alpha: 1, beta: 0.5}
				pc.a, pc.b, pc.c = randView[T](n, k, rng), randView[T](k, n, rng), randView[T](n, n, rng)
				if op != opGemm {
					pc.b = randView[T](n, k, rng)
				}
				return pc
			}
			pc := fresh()
			if err := pc.run(ctx, pc.c, threads, defaultParams[T]()); err != nil {
				t.Fatalf("%v threads=%d: shortest valid strided views refused: %v", op, threads, err)
			}
			operands := []string{"A", "B", "C"}
			if op == opSyrk {
				operands = []string{"A", "C"}
			}
			for _, name := range operands {
				for _, defect := range []string{"Data", "Stride"} {
					pc := fresh()
					v := map[string]*mat.Dense[T]{"A": &pc.a, "B": &pc.b, "C": &pc.c}[name]
					if defect == "Data" {
						v.Data = v.Data[:len(v.Data)-1]
					} else {
						v.Stride = v.Cols - 1
					}
					err := pc.run(ctx, pc.c, threads, defaultParams[T]())
					if err == nil {
						t.Fatalf("%v threads=%d: short %s of %s accepted", op, threads, defect, name)
					}
					for _, part := range []string{op.String(), "operand " + name, defect} {
						if !strings.Contains(err.Error(), part) {
							t.Errorf("%v threads=%d short %s of %s: error %q does not name %q", op, threads, defect, name, err, part)
						}
					}
				}
			}
			// The context must still work after the refusals.
			pc = fresh()
			if err := pc.run(ctx, pc.c, threads, defaultParams[T]()); err != nil {
				t.Fatalf("%v threads=%d after refusals: %v", op, threads, err)
			}
		}
	}
}
