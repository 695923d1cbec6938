// Package blas implements the level-3 routines GEMM (C ← αAB + βC), SYRK
// (C ← αAAᵀ + βC) and SYR2K (C ← α(ABᵀ + BAᵀ) + βC) in Go, following the
// BLIS five-loop blocked-and-packed design: the operand matrices are
// partitioned into cache-sized panels (NC/KC/MC), panels are packed into
// contiguous buffers, and an MR×NR register micro-kernel performs the
// innermost rank-KC update — an assembly tile on amd64 CPUs that have one, a
// pure-Go 4×4 tile everywhere else (kernel.go). Two CPUID/XGETBV probes pick
// the assembly tile once at start-up: 6 rows × two ZMM registers (6×32 in
// float32, 6×16 in float64) where AVX512F runs and the OS saves the opmask
// and ZMM state (XCR0 bits 5–7), 6 rows × two YMM registers (6×16, 6×8) where
// only AVX2 and FMA do. A call under the default blocking whose C has no more
// columns than one YMM tile row keeps the YMM tile (narrowShape, beside the
// small-shape gate): like that gate it is a function of the dimensions only,
// and both tiles sum each element in the same order, so neither choice moves
// a result bit. A persistent worker team parallelises the packing and MC
// loops, mirroring how MKL/BLIS thread the same loops with an OpenMP thread
// pool.
//
// There is one of each layer, shared by the three operations: one matrix
// header (mat.Dense, held by value), one driver (drive), one per-part worker,
// one macro-kernel and one tile store — storeTile for every tile the edge of
// C or the diagonal clips, and the same arithmetic straight from the
// accumulator registers for the full interior tiles of the assembly kernel.
// Calls under the small-shape gate skip packing and run one thread; they
// compute every element as the packed path does, on every host, so the
// gate, like the thread count, moves no result bit. GEMM is the unmasked
// case. The symmetric updates are the same loops run as
// a lower pass — B is op(b)ᵀ read straight out of b, the column limits of an
// MC block and of an MR band stop at the diagonal instead of at the panel
// edge (reach), the store of a diagonal-straddling tile is masked to j ≤ i,
// and rows are dealt by triangle area — followed by a mirror into the upper
// triangle; SYRK is one such pass with b = a, SYR2K two.
//
// The data movement around the tile — packing rows into panel columns, the
// mirror — runs on the vector unit too where the tile does: YMM block
// transposes in registers whichever tile runs, and a row copy as wide as the
// tile (kernel_amd64.s, behind the same CPU probes), with the Go loops
// in pack.go and syrk.go as the reference and as what handles ragged panels,
// the kc tail and everything that touches the diagonal.
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

// params holds the blocking parameters of the five-loop algorithm.
type params struct {
	MC, KC, NC int // cache block sizes (rows of A, depth, cols of B)
	MR, NR     int // register micro-tile
}

// defaultParams returns the blocking parameters a call with the zero params
// uses, for element type T on this CPU. The cache blocks are
// sized for typical L1/L2/L3 capacities and are multiples of every tile; the
// register tile is the one place the default depends on T and the machine:
// the ZMM tile (6×32 in float32, 6×16 in float64) where the CPU probe found
// AVX-512 (AVX512F, with the OS saving the opmask and ZMM state), the YMM tile
// (6×16, 6×8) where it found AVX2 and FMA only, the Go 4×4 tile everywhere
// else (see kernel.go). A call under these defaults whose C has no more
// columns than one YMM tile row still runs the YMM tile (narrowShape).
func defaultParams[T float32 | float64]() params {
	p := params{MC: 120, KC: defaultKC, NC: 2048, MR: goMR, NR: goNR}
	if useVec {
		p.MR, p.NR = vecMR, vecNR[T]()
	}
	return p
}

// defaultKC is the default blocking's depth: the packed path sums each
// element of C in chunks of this many p, one rounding per multiply-add within
// a chunk.
const defaultKC = 256

// validate reports whether the parameters can drive the packed kernel in
// some precision on this CPU.
func (p params) validate() error {
	if p.MC < 1 || p.KC < 1 || p.NC < 1 {
		return fmt.Errorf("blas: non-positive block sizes %+v", p)
	}
	vec := p.MR == vecMR && (isVecNR[float32](p.NR) || isVecNR[float64](p.NR))
	if !vec && (p.MR != goMR || p.NR != goNR) {
		have := "4x4"
		switch {
		case useZMM:
			have = "4x4, 6x16 or 6x32 in float32, 6x8 or 6x16 in float64"
		case useVec:
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

// checkParams is validate plus the half of the tile rule that needs the
// element type: the vector tiles' widths are fixed per precision.
func checkParams[T float32 | float64](p params) error {
	if err := p.validate(); err != nil {
		return err
	}
	if p.MR == vecMR && !isVecNR[T](p.NR) {
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

// opKind names the operation a call runs. The driver (drive, in context.go) is
// the one place that knows what differs between them.
type opKind uint8

const (
	opGemm opKind = iota
	opSyrk
	opSyr2k
)

func (o opKind) String() string { return [...]string{"GEMM", "SYRK", "SYR2K"}[o] }

// checkOperands validates the three operand headers of one call (SYRK
// passes its A twice). The driver calls it before any work is handed to the
// team, so that input alone can never make a part panic; a part that panics
// anyway (an indexing bug) fails the call with an error (runCall).
func checkOperands[T float32 | float64](op opKind, a, b, c mat.Dense[T]) error {
	if err := checkHeader(a, op, "A"); err != nil {
		return err
	}
	if err := checkHeader(b, op, "B"); err != nil {
		return err
	}
	return checkHeader(c, op, "C")
}

// checkHeader reports a header the kernels would index out of range with: a
// stride shorter than a row, or data that ends before the last element. A
// strided sub-matrix whose data ends with its last row is valid. The test is
// a handful of compares on the call path; describing the defect is kept out
// of line.
func checkHeader[T float32 | float64](v mat.Dense[T], op opKind, name string) error {
	if v.Rows == 0 || v.Cols == 0 ||
		v.Rows > 0 && v.Cols > 0 && v.Stride >= v.Cols && len(v.Data) >= (v.Rows-1)*v.Stride+v.Cols {
		return nil
	}
	return headerError(v, op, name)
}

func headerError[T float32 | float64](v mat.Dense[T], op opKind, name string) error {
	switch {
	case v.Rows < 0 || v.Cols < 0:
		return fmt.Errorf("blas: %v operand %s: negative dimensions %dx%d", op, name, v.Rows, v.Cols)
	case v.Stride < v.Cols:
		return fmt.Errorf("blas: %v operand %s: Stride %d < Cols %d", op, name, v.Stride, v.Cols)
	}
	return fmt.Errorf("blas: %v operand %s: len(Data) %d < %d needed for %dx%d with Stride %d",
		op, name, len(v.Data), (v.Rows-1)*v.Stride+v.Cols, v.Rows, v.Cols, v.Stride)
}

// opDims returns the dimensions of op(X).
func opDims[T float32 | float64](v mat.Dense[T], trans bool) (rows, cols int) {
	if trans {
		return v.Cols, v.Rows
	}
	return v.Rows, v.Cols
}

// opAt reads element (i, j) of op(X).
func opAt[T float32 | float64](v mat.Dense[T], trans bool, i, j int) T {
	if trans {
		i, j = j, i
	}
	return v.At(i, j)
}

// scaleC applies C ← beta·C, to the lower triangle only under lower.
func scaleC[T float32 | float64](c mat.Dense[T], beta T, lower bool) {
	for i := 0; i < c.Rows; i++ {
		cols := c.Cols
		if lower {
			cols = i + 1
		}
		row := c.Data[i*c.Stride : i*c.Stride+cols]
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
