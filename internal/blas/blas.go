// Package blas implements the level-3 GEMM routine (C ← αAB + βC) in Go,
// following the BLIS five-loop blocked-and-packed design: the operand
// matrices are partitioned into cache-sized panels (NC/KC/MC), panels are
// packed into contiguous buffers, and an MR×NR register micro-kernel performs
// the innermost rank-KC update — an AVX2/FMA assembly tile on amd64 CPUs
// that have it, a pure-Go 4×4 tile everywhere else (kernel.go). A persistent
// worker team parallelises the packing and MC loops, mirroring how MKL/BLIS
// thread the same loops with an OpenMP thread pool.
//
// The package plays the role of the paper's vendor BLAS: ADSALA treats it as
// a black box whose only tunable is the thread count. Its cost structure —
// fork/join (here: the team's dispatch and join), per-panel packing copies,
// per-iteration barriers and the FLOP kernel — is exactly the decomposition
// the paper's VTune profiling reports in Table VII.
//
// Execution state (packed-panel buffers, the worker team) lives in a
// Context. The package-level entry points draw Contexts from an internal
// pool, so steady-state calls are allocation-free; callers with a hot loop
// can hold their own Context instead.
package blas

import (
	"fmt"

	"repro/internal/mat"
)

// Params holds the blocking parameters of the five-loop algorithm.
type Params struct {
	MC, KC, NC int // cache block sizes (rows of A, depth, cols of B)
	MR, NR     int // register micro-tile
}

// DefaultParams returns the blocking parameters a Context whose Params field
// is zero uses, for element type T on this CPU. The cache blocks are
// sized for typical L1/L2/L3 capacities and are multiples of both tiles; the
// register tile is the one place the default depends on T and the machine:
// the vector tile (6×16 in float32, 6×8 in float64) where the CPU probe
// found AVX2 and FMA, the Go 4×4 tile everywhere else (see kernel.go).
func DefaultParams[T float32 | float64]() Params {
	p := Params{MC: 120, KC: 256, NC: 2048, MR: goMR, NR: goNR}
	if useVec {
		p.MR, p.NR = vecMR, vecNR[T]()
	}
	return p
}

// Validate reports whether the parameters can drive the packed kernel in
// some precision on this CPU.
func (p Params) Validate() error {
	if p.MC < 1 || p.KC < 1 || p.NC < 1 {
		return fmt.Errorf("blas: non-positive block sizes %+v", p)
	}
	vec := useVec && p.MR == vecMR && (p.NR == vecNR[float32]() || p.NR == vecNR[float64]())
	if !vec && (p.MR != goMR || p.NR != goNR) {
		have := "4x4"
		if useVec {
			have = "4x4, 6x16 in float32, 6x8 in float64"
		}
		return fmt.Errorf("blas: micro-tile %dx%d unsupported (have %s)", p.MR, p.NR, have)
	}
	if p.MC%p.MR != 0 {
		return fmt.Errorf("blas: MC=%d must be a multiple of MR=%d", p.MC, p.MR)
	}
	if p.NC%p.NR != 0 {
		return fmt.Errorf("blas: NC=%d must be a multiple of NR=%d", p.NC, p.NR)
	}
	return nil
}

// checkParams is Validate plus the half of the tile rule that needs the
// element type: the vector tile's width is fixed per precision.
func checkParams[T float32 | float64](p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.MR == vecMR && p.NR != vecNR[T]() {
		return fmt.Errorf("blas: micro-tile %dx%d is the other precision's (want %dx%d)", p.MR, p.NR, vecMR, vecNR[T]())
	}
	return nil
}

// SGEMM computes C ← alpha·op(A)·op(B) + beta·C in single precision using
// the given number of worker goroutines (threads < 1 is treated as 1).
// op(A) is A when transA is false and Aᵀ otherwise; likewise for B.
// Dimension compatibility follows the BLAS convention: with m×k = op(A),
// k×n = op(B), C must be m×n. The call runs on a pooled Context and
// allocates nothing in steady state.
func SGEMM(transA, transB bool, alpha float32, a *mat.F32, b *mat.F32, beta float32, c *mat.F32, threads int) error {
	ctx := ctxPool.Get().(*Context)
	// Deferred so a panicking inner call (an indexing bug; malformed operand
	// headers are refused with an error before any work starts) does not
	// leak the pooled context and its worker team.
	defer ctxPool.Put(ctx)
	return ctx.SGEMM(transA, transB, alpha, a, b, beta, c, threads)
}

// DGEMM is the double-precision counterpart of SGEMM.
func DGEMM(transA, transB bool, alpha float64, a *mat.F64, b *mat.F64, beta float64, c *mat.F64, threads int) error {
	ctx := ctxPool.Get().(*Context)
	defer ctxPool.Put(ctx)
	return ctx.DGEMM(transA, transB, alpha, a, b, beta, c, threads)
}

// view is a type-parameterised matrix header over a flat backing slice.
type view[T float32 | float64] struct {
	rows, cols, stride int
	data               []T
}

func (v view[T]) at(i, j int) T { return v.data[i*v.stride+j] }

// checkOperands validates the three operand headers of one call (SYRK
// passes its A twice). The drivers call it before any work is handed to the
// team, so that input alone can never make a part panic; a part that panics
// anyway (an indexing bug) fails the call with an error (runCall).
func checkOperands[T float32 | float64](op string, a, b, c view[T]) error {
	if err := a.check(op, "A"); err != nil {
		return err
	}
	if err := b.check(op, "B"); err != nil {
		return err
	}
	return c.check(op, "C")
}

// check reports a header the kernels would index out of range with: a
// stride shorter than a row, or data that ends before the last element. A
// strided sub-matrix view whose data ends with its last row is valid. The
// test is a handful of compares on the call path; describing the defect is
// kept out of line.
func (v view[T]) check(op, name string) error {
	if v.rows == 0 || v.cols == 0 ||
		v.rows > 0 && v.cols > 0 && v.stride >= v.cols && len(v.data) >= (v.rows-1)*v.stride+v.cols {
		return nil
	}
	return v.headerError(op, name)
}

func (v view[T]) headerError(op, name string) error {
	switch {
	case v.rows < 0 || v.cols < 0:
		return fmt.Errorf("blas: %s operand %s: negative dimensions %dx%d", op, name, v.rows, v.cols)
	case v.stride < v.cols:
		return fmt.Errorf("blas: %s operand %s: Stride %d < Cols %d", op, name, v.stride, v.cols)
	}
	return fmt.Errorf("blas: %s operand %s: len(Data) %d < %d needed for %dx%d with Stride %d",
		op, name, len(v.data), (v.rows-1)*v.stride+v.cols, v.rows, v.cols, v.stride)
}

// opDims returns the dimensions of op(X).
func opDims[T float32 | float64](v view[T], trans bool) (rows, cols int) {
	if trans {
		return v.cols, v.rows
	}
	return v.rows, v.cols
}

// opAt reads element (i, j) of op(X).
func opAt[T float32 | float64](v view[T], trans bool, i, j int) T {
	if trans {
		return v.at(j, i)
	}
	return v.at(i, j)
}

func errInnerDims(m, ka, kb, n int) error {
	return fmt.Errorf("blas: inner dimensions differ: op(A) is %dx%d, op(B) is %dx%d", m, ka, kb, n)
}

func errCDims(rows, cols, m, n int) error {
	return fmt.Errorf("blas: C is %dx%d, want %dx%d", rows, cols, m, n)
}

// scaleC applies C ← beta·C.
func scaleC[T float32 | float64](c view[T], beta T) {
	for i := 0; i < c.rows; i++ {
		row := c.data[i*c.stride : i*c.stride+c.cols]
		if beta == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if beta != 1 {
			for j := range row {
				row[j] *= beta
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
