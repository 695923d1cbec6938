package adsala

// Integration tests exercising the full public workflow across platforms:
// the "architecture aware" behaviour (same shape, different machine,
// different decision), end-to-end numerical correctness through the ML
// front end, and artefact portability.

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/simtime"
)

// trainBoth trains one quick library per simulated platform.
func trainBoth(t *testing.T) (setonix, gadi *Library) {
	t.Helper()
	var err error
	setonix, _, err = Train(TrainOptions{Platform: "Setonix", Shapes: 160, Quick: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	gadi, _, err = Train(TrainOptions{Platform: "Gadi", Shapes: 160, Quick: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return setonix, gadi
}

func TestArchitectureAwareness(t *testing.T) {
	setonix, gadi := trainBoth(t)
	// Large square GEMM: each platform should commit a large fraction of its
	// own machine — so the two decisions must differ substantially, because
	// the machines do.
	sBig := setonix.OptimalThreadsOp(OpGEMM, 8000, 8000, 8000)
	gBig := gadi.OptimalThreadsOp(OpGEMM, 8000, 8000, 8000)
	if sBig < 64 {
		t.Errorf("Setonix big-GEMM choice %d; want a large fraction of 256", sBig)
	}
	if gBig < 24 {
		t.Errorf("Gadi big-GEMM choice %d; want a large fraction of 96", gBig)
	}
	if sBig <= gBig {
		t.Errorf("128-core machine chose %d threads <= 48-core machine's %d", sBig, gBig)
	}
	// Small GEMM above the library's dynamic-threading grain: the realised
	// time of each model's choice must be close to the sweep optimum on its
	// own machine (labels inside the throttled flat region are all
	// equivalent, so we judge times, not labels).
	for _, tc := range []struct {
		name string
		lib  *Library
		node func() *machine.Node
		ht   bool
	}{
		{"Setonix", setonix, machine.Setonix, true},
		{"Gadi", gadi, machine.Gadi, true},
	} {
		sim := simtime.New(simtime.DefaultConfig(tc.node()))
		const m, k, n = 200, 200, 200
		choice := tc.lib.OptimalThreadsOp(OpGEMM, m, k, n)
		tChoice := sim.Breakdown(m, k, n, choice).Total()
		best := tChoice
		for p := 1; p <= sim.MaxThreads(); p++ {
			if tt := sim.Breakdown(m, k, n, p).Total(); tt < best {
				best = tt
			}
		}
		if tChoice > 2.5*best {
			t.Errorf("%s: 200^3 choice %d realises %.1fus vs optimum %.1fus",
				tc.name, choice, tChoice*1e6, best*1e6)
		}
	}
}

func TestEndToEndArtefactPortability(t *testing.T) {
	setonix, _ := trainBoth(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "setonix.adsala.json")
	if err := setonix.Save(path); err != nil {
		t.Fatal(err)
	}
	lib, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// The restored artefact must reproduce decisions AND run numerically
	// correct GEMMs through the front end.
	for _, sh := range [][3]int{{100, 200, 50}, {64, 2048, 64}, {2000, 2000, 2000}} {
		if a, b := setonix.OptimalThreadsOp(OpGEMM, sh[0], sh[1], sh[2]), lib.OptimalThreadsOp(OpGEMM, sh[0], sh[1], sh[2]); a != b {
			t.Errorf("shape %v: decision changed %d -> %d across save/load", sh, a, b)
		}
	}
	g := lib.BLAS()
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 31, 63, 17
	a := NewMatrixF32(m, k)
	b := NewMatrixF32(k, n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c := NewMatrixF32(m, n)
	if err := g.SGEMM(false, false, 2, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	var want float64
	for p := 0; p < k; p++ {
		want += 2 * float64(a.At(7, p)) * float64(b.At(p, 11))
	}
	if got := float64(c.At(7, 11)); got-want > 1e-3 || want-got > 1e-3 {
		t.Errorf("C[7,11] = %v, want %v", got, want)
	}
}

func TestSkinnyShapeDecisionQuality(t *testing.T) {
	// The Table VII regime end to end through the public API: for the
	// pathological 64×2048×64, the trained model must choose a count whose
	// *simulated* runtime beats max threads by a wide margin.
	_, gadi := trainBoth(t)
	choice := gadi.OptimalThreadsOp(OpGEMM, 64, 2048, 64)
	if choice > 48 {
		t.Errorf("chose %d threads for 64x2048x64; paper's model chose 14", choice)
	}
	// Judge the decision against the simulated ground truth: the chosen
	// count must realise a large fraction of the available speedup.
	sim := simtime.New(simtime.DefaultConfig(machine.Gadi()))
	tChoice := sim.Breakdown(64, 2048, 64, choice).Total()
	tMax := sim.Breakdown(64, 2048, 64, 96).Total()
	if ratio := tMax / tChoice; ratio < 10 {
		t.Errorf("realised speedup %.1fx at %d threads; paper's regime is >>10x", ratio, choice)
	}
}
