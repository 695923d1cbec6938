package simtime

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/ops"
)

// TestSpecBuildSim pins the Spec contract: a Spec that went through a JSON
// round trip builds a Simulator timing identically to one constructed
// directly from DefaultConfig.
func TestSpecBuildSim(t *testing.T) {
	spec := SimSpec("Gadi", 5, true)
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Spec
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	timer, err := decoded.Build()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig(machine.Gadi())
	cfg.HT = true
	cfg.Seed = 5
	local := New(cfg)

	for _, c := range [][4]int{{64, 2048, 64, 96}, {512, 512, 512, 12}, {33, 7, 1025, 1}} {
		for _, op := range []ops.Op{ops.GEMM, ops.SYRK} {
			want := local.Measure(op, c[0], c[1], c[2], c[3], 3)
			if got := timer.Measure(op, c[0], c[1], c[2], c[3], 3); got != want {
				t.Errorf("%v %v: decoded simulator %v, direct %v", op, c, got, want)
			}
		}
	}
}

// TestSpecBuildSimNoHT checks the HT flag reaches the built simulator.
func TestSpecBuildSimNoHT(t *testing.T) {
	timer, err := SimSpec("Gadi", 1, false).Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := timer.(*Simulator)
	if sim.Config().HT {
		t.Error("HT=false spec built an HT simulator")
	}
	if got, want := sim.MaxThreads(), machine.Gadi().PhysicalCores(); got != want {
		t.Errorf("MaxThreads = %d, want the physical core count %d", got, want)
	}
}

// TestSpecBuildReal covers the real backend and the error paths.
func TestSpecBuildReal(t *testing.T) {
	timer, err := RealSpec().Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := timer.(*RealTimer); !ok {
		t.Errorf("RealSpec built %T", timer)
	}
	if _, err := (Spec{Backend: "quantum"}).Build(); err == nil {
		t.Error("unknown backend should error")
	}
	if _, err := (Spec{Backend: BackendSim, Platform: "NoSuchMachine"}).Build(); err == nil {
		t.Error("unknown platform should error")
	}
}
