// Package ops is the BLAS-3 operation registry: one table describing every
// operation the library can train models for, serve decisions for, and
// execute. Each Spec carries the op's wire name, the mapping from sampled
// dimensions onto the (m, k, n) feature triple the models consume, its FLOP
// count (the cost weight that separates per-op cost profiles), and an
// executor binding into internal/blas used for install-time timing.
//
// The registry exists so that extending the library to a new BLAS-3
// operation (the paper's §VII future work) is one table entry plus a kernel
// — serve, core, the command-line tools and the public facade all consume
// the table instead of switching on the op.
package ops

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/blas"
	"repro/internal/mat"
	"repro/internal/sampling"
)

// Op identifies a BLAS-3 operation. It keys the serving decision cache and
// the per-op model bundle, so decisions and models for the same shape triple
// never alias across operations.
type Op uint8

const (
	// GEMM is the general matrix multiply C ← αAB + βC (feature triple
	// m×k×n).
	GEMM Op = iota
	// SYRK is the symmetric rank-k update C ← αAAᵀ + βC; its feature triple
	// is (n, k, n).
	SYRK
	// SYR2K is the symmetric rank-2k update C ← α(ABᵀ + BAᵀ) + βC; its
	// feature triple is (n, k, n).
	SYR2K

	// numOps must stay last in the iota sequence; the registry table and
	// every per-op array are sized with it.
	numOps
)

// NumOps returns the number of registered operations. Per-op arrays (batch
// splits, model bundles) are sized with it instead of hard-coding the op
// count.
func NumOps() int { return int(numOps) }

// Spec describes one registered operation.
type Spec struct {
	// Op is the operation this spec describes (its index in the table).
	Op Op
	// Name is the wire name used by the HTTP API, artefact files and
	// command-line flags ("gemm", "syrk", "syr2k").
	Name string
	// Canon maps a shape sampled from the GEMM-domain sampler onto this
	// op's canonical (m, k, n) feature triple. GEMM is the identity; the
	// symmetric updates fold the output to m×m, giving (m, k, m).
	Canon func(s sampling.Shape) sampling.Shape
	// Flops returns the FLOP count of one call at the canonical triple —
	// the per-op cost weight (GEMM 2mkn, SYRK n(n+1)k, SYR2K 2n(n+1)k).
	Flops func(m, k, n int) float64
	// NewBench allocates random operands for the canonical triple and
	// returns a closure executing one call of the op on the internal/blas
	// kernels with the given thread count — the executor binding used by
	// install-time local timing (and the bench harnesses).
	NewBench func(m, k, n int, rng *rand.Rand) func(threads int) error
}

// table is the registry. Adding an operation means appending an Op constant,
// one entry here, and the kernel it binds to — every consumer picks it up
// from the table.
var table = [numOps]Spec{
	GEMM: {
		Op:    GEMM,
		Name:  "gemm",
		Canon: func(s sampling.Shape) sampling.Shape { return s },
		Flops: func(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) },
		NewBench: func(m, k, n int, rng *rand.Rand) func(threads int) error {
			a := mat.NewF32(m, k)
			b := mat.NewF32(k, n)
			c := mat.NewF32(m, n)
			a.FillRandom(rng)
			b.FillRandom(rng)
			return func(threads int) error {
				return blas.SGEMM(false, false, 1, a, b, 0, c, threads)
			}
		},
	},
	SYRK: {
		Op:    SYRK,
		Name:  "syrk",
		Canon: func(s sampling.Shape) sampling.Shape { return sampling.Shape{M: s.M, K: s.K, N: s.M} },
		Flops: func(m, k, n int) float64 { return float64(m) * float64(m+1) * float64(k) },
		NewBench: func(m, k, n int, rng *rand.Rand) func(threads int) error {
			a := mat.NewF32(m, k)
			c := mat.NewF32(m, m)
			a.FillRandom(rng)
			return func(threads int) error {
				return blas.SSYRK(false, 1, a, 0, c, threads)
			}
		},
	},
	SYR2K: {
		Op:    SYR2K,
		Name:  "syr2k",
		Canon: func(s sampling.Shape) sampling.Shape { return sampling.Shape{M: s.M, K: s.K, N: s.M} },
		Flops: func(m, k, n int) float64 { return 2 * float64(m) * float64(m+1) * float64(k) },
		NewBench: func(m, k, n int, rng *rand.Rand) func(threads int) error {
			a := mat.NewF32(m, k)
			b := mat.NewF32(m, k)
			c := mat.NewF32(m, m)
			a.FillRandom(rng)
			b.FillRandom(rng)
			return func(threads int) error {
				return blas.SSYR2K(false, 1, a, b, 0, c, threads)
			}
		},
	},
}

// Specs returns the registry entries in op order.
func Specs() []Spec { return append([]Spec(nil), table[:]...) }

// All returns every registered op in order.
func All() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Spec returns the registry entry for the op. Unknown ops yield a zero Spec
// with only the fallback name set; callers guard with Valid.
func (op Op) Spec() Spec {
	if !op.Valid() {
		return Spec{Op: op, Name: fmt.Sprintf("op(%d)", uint8(op))}
	}
	return table[op]
}

// String returns the wire name of the op.
func (op Op) String() string { return op.Spec().Name }

// Valid reports whether op is a registered operation.
func (op Op) Valid() bool { return op < numOps }

// names returns the registered wire names in op order.
func names() []string {
	out := make([]string, numOps)
	for i, s := range table {
		out[i] = s.Name
	}
	return out
}

// Parse maps a wire name to an Op. The empty string selects GEMM so pre-op
// clients (and hand-written queries) keep working unchanged.
func Parse(s string) (Op, error) {
	if s == "" {
		return GEMM, nil
	}
	for _, spec := range table {
		if s == spec.Name {
			return spec.Op, nil
		}
	}
	return 0, fmt.Errorf("ops: unknown op %q (want one of: %s)", s, strings.Join(names(), ", "))
}

// ParseList maps a comma-separated list of wire names to ops, deduplicated
// in first-seen order (the -ops command-line flag format).
func ParseList(s string) ([]Op, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Op
	seen := make(map[Op]bool)
	for _, part := range strings.Split(s, ",") {
		op, err := Parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out, nil
}
