package simtime

import "repro/internal/ops"

// BreakdownOp returns the noiseless wall-time decomposition of one call of
// op at its canonical triple. GEMM is the base model; the symmetric updates
// rescale its components per the masked-tile algorithm they run on:
//
//   - SYRK packs only the MC blocks that reach the lower triangle (≈ half
//     the A-packing traffic; the shared op(A)ᵀ panel is still packed in
//     full), executes ≈ (n+1)/(2n) of the GEMM FLOPs, keeps the same
//     barrier count, and pays a mirror pass streaming the n² output twice.
//   - SYR2K runs two such passes over the same buffers: double the
//     spawn/sync/copy of SYRK's pass, twice its FLOPs, one mirror.
//
// The kernel scaling comes from the registry's per-op FLOP weight, so a new
// op's simulated cost profile follows its registered weight by default.
func (s *Simulator) BreakdownOp(op ops.Op, m, k, n, threads int) Breakdown {
	b := s.Breakdown(m, k, n, threads)
	if op == ops.GEMM {
		return b
	}
	gemmFlops := 2 * float64(m) * float64(k) * float64(n)
	kernelScale := op.Spec().Flops(m, k, n) / gemmFlops

	// Mirror pass: the n×n output is read (lower) and written (upper) once,
	// streamed at one NUMA domain's bandwidth.
	prec := float64(s.cfg.Precision.Bytes())
	mirror := 2 * float64(m) * float64(n) * prec / (s.cfg.Node.MemBWPerNUMA * 1e9)

	switch op {
	case ops.SYRK:
		b.Copy *= 0.75
		b.Kernel *= kernelScale
	case ops.SYR2K:
		b.Spawn *= 2
		b.Sync *= 2
		b.Copy *= 1.5
		b.Kernel *= kernelScale
	default:
		// Unknown future op: scale the FLOP-proportional components by the
		// registered weight and keep the synchronisation structure.
		b.Copy *= kernelScale
		b.Kernel *= kernelScale
	}
	b.Copy += mirror
	return b
}
