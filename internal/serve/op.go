package serve

import "repro/internal/ops"

// Op identifies the BLAS-3 operation a thread-selection decision applies to.
// It is the operation registry's ops.Op re-exported: the serving layer keys
// its decision cache and batch splits by op but holds no operation knowledge
// of its own — wire names, parsing, shape canonicalisation and the op set
// all come from the registry table (internal/ops), so registering a new
// operation needs no serving-layer change at all.
type Op = ops.Op

// Operation kinds, re-exported from the registry for serve's callers.
const (
	// OpGEMM is the general matrix multiply C ← αAB + βC (m×k×n).
	OpGEMM = ops.GEMM
	// OpSYRK is the symmetric rank-k update C ← αAAᵀ + βC; its shape triple
	// is (n, k, n).
	OpSYRK = ops.SYRK
	// OpSYR2K is the symmetric rank-2k update C ← α(ABᵀ + BAᵀ) + βC; its
	// shape triple is (n, k, n).
	OpSYR2K = ops.SYR2K
)

// parseOp maps a wire name to an Op via the registry. The empty string
// selects OpGEMM so pre-op clients (and hand-written queries) keep working
// unchanged.
func parseOp(s string) (Op, error) { return ops.Parse(s) }
