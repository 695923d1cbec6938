// Package mat provides dense row-major matrices for the GEMM substrate.
//
// Matrices are backed by flat slices whose first element is aligned to a
// 64-byte boundary (matching the paper's memalign(64, ...) allocation, which
// assists vector loads and avoids false sharing on cache-line granularity).
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"
)

const alignBytes = 64

// Dense is a dense row-major matrix. Rows*Stride elements of Data back the
// matrix; Stride >= Cols (leading dimension, as LDA/LDB/LDC in the BLAS
// interface).
type Dense[T float32 | float64] struct {
	Rows, Cols int
	Stride     int
	Data       []T
}

type (
	// F32 is the single-precision matrix.
	F32 = Dense[float32]
	// F64 is the double-precision matrix.
	F64 = Dense[float64]
)

// aligned allocates n zeroed values whose first element sits on a 64-byte
// boundary.
func aligned[T float32 | float64](n int) []T {
	if n == 0 {
		return nil
	}
	elem := unsafe.Sizeof(T(0))
	raw := make([]T, n+int(alignBytes/elem))
	off := 0
	addr := uintptr(unsafe.Pointer(&raw[0]))
	if rem := addr % alignBytes; rem != 0 {
		off = int((alignBytes - rem) / elem)
	}
	return raw[off : off+n : off+n]
}

func newDense[T float32 | float64](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", rows, cols))
	}
	return &Dense[T]{Rows: rows, Cols: cols, Stride: cols, Data: aligned[T](rows * cols)}
}

// NewF32 allocates a zeroed rows × cols float32 matrix with Stride == cols.
// It panics if rows or cols is negative.
func NewF32(rows, cols int) *F32 { return newDense[float32](rows, cols) }

// NewF64 allocates a zeroed rows × cols float64 matrix with Stride == cols.
// It panics if rows or cols is negative.
func NewF64(rows, cols int) *F64 { return newDense[float64](rows, cols) }

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Stride+j] }

// Set stores v at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Stride+j] = v }

// row returns the Cols live elements of row i.
func (m *Dense[T]) row(i int) []T { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// FillRandom fills the matrix with uniform values in [-1, 1) from rng.
func (m *Dense[T]) FillRandom(rng *rand.Rand) {
	for i := 0; i < m.Rows; i++ {
		row := m.row(i)
		for j := range row {
			row[j] = T(2*rng.Float64() - 1)
		}
	}
}

// Fill sets every element of the matrix to v.
func (m *Dense[T]) Fill(v T) {
	for i := 0; i < m.Rows; i++ {
		row := m.row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// Clone returns a deep copy with a compact stride.
func (m *Dense[T]) Clone() *Dense[T] {
	c := newDense[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(c.row(i), m.row(i))
	}
	return c
}

// MaxAbsDiff returns the largest absolute element-wise difference between m
// and other. It panics if shapes differ.
func (m *Dense[T]) MaxAbsDiff(other *Dense[T]) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	var max float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			d := math.Abs(float64(m.At(i, j)) - float64(other.At(i, j)))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Aligned reports whether the first element of the backing slice is on a
// 64-byte boundary. Empty matrices are trivially aligned.
func (m *Dense[T]) Aligned() bool {
	if len(m.Data) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&m.Data[0]))%alignBytes == 0
}
