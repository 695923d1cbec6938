package simtime

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/ops"
)

func TestSimulatorOpTiming(t *testing.T) {
	s := New(DefaultConfig(machine.Gadi()))
	const m, k, n, p = 512, 256, 512, 8

	// GEMM is the paper path exactly: the base breakdown under the original
	// noise draw (no op mixed into the hash).
	cfg := s.Config()
	z := gaussian(hash6(cfg.Seed, m, k, n, p, 0))
	want := s.Breakdown(m, k, n, p).Total() * math.Exp(noiseSigma*z-0.5*noiseSigma*noiseSigma)
	if got := s.Measure(ops.GEMM, m, k, n, p, 1); got != want {
		t.Errorf("Measure(gemm) = %v, paper draw = %v", got, want)
	}

	// Cost ordering at a square triple: SYRK does roughly half the GEMM
	// FLOPs, SYR2K roughly doubles SYRK.
	g := s.Breakdown(m, k, m, p).Total()
	sy := s.BreakdownOp(ops.SYRK, m, k, m, p).Total()
	s2 := s.BreakdownOp(ops.SYR2K, m, k, m, p).Total()
	if !(sy < g) {
		t.Errorf("syrk %v not below gemm %v", sy, g)
	}
	if !(s2 > sy && s2 > 1.5*sy) {
		t.Errorf("syr2k %v vs syrk %v, want roughly double", s2, sy)
	}
	// SYR2K pays two barrier-phased passes.
	bg := s.Breakdown(m, k, m, p)
	b2 := s.BreakdownOp(ops.SYR2K, m, k, m, p)
	if b2.Sync != 2*bg.Sync {
		t.Errorf("syr2k sync %v, want 2x gemm %v", b2.Sync, bg.Sync)
	}

	// Noise is deterministic per (op, config, rep) and distinct across ops.
	if a, b := s.noise(ops.SYRK, m, k, m, p, 1), s.noise(ops.SYRK, m, k, m, p, 1); a != b {
		t.Errorf("syrk noise not reproducible: %v vs %v", a, b)
	}
	if s.noise(ops.SYRK, m, k, m, p, 0) == s.noise(ops.GEMM, m, k, m, p, 0) {
		t.Error("syrk and gemm share a noise draw")
	}
	ratio := s.Measure(ops.SYRK, m, k, m, p, 1) / s.Measure(ops.GEMM, m, k, m, p, 1)
	if ratio <= 0 || ratio >= 1 {
		t.Errorf("noisy syrk/gemm ratio %v, want in (0,1)", ratio)
	}
}

func TestRealTimerOps(t *testing.T) {
	rt := NewRealTimer()
	for _, op := range ops.All() {
		if secs := rt.Measure(op, 24, 16, 24, 1, 1); secs <= 0 {
			t.Errorf("%v measured %v seconds", op, secs)
		}
	}
	if rt.GemmCalls() != int64(ops.NumOps()) {
		t.Errorf("timed calls = %d, want one per op", rt.GemmCalls())
	}
}
