package machine

import (
	"testing"
	"testing/quick"
)

func TestPresetsValidate(t *testing.T) {
	for _, n := range []*Node{Setonix(), Gadi()} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	s := Setonix()
	if s.PhysicalCores() != 128 {
		t.Errorf("Setonix physical cores = %d, want 128", s.PhysicalCores())
	}
	if s.MaxThreads(true) != 256 {
		t.Errorf("Setonix max HT threads = %d, want 256", s.MaxThreads(true))
	}
	if s.NUMADomains() != 8 {
		t.Errorf("Setonix NUMA domains = %d, want 8", s.NUMADomains())
	}
	g := Gadi()
	if g.PhysicalCores() != 48 {
		t.Errorf("Gadi physical cores = %d, want 48", g.PhysicalCores())
	}
	if g.MaxThreads(true) != 96 {
		t.Errorf("Gadi max HT threads = %d, want 96", g.MaxThreads(true))
	}
	if g.MaxThreads(false) != 48 {
		t.Errorf("Gadi max non-HT threads = %d, want 48", g.MaxThreads(false))
	}
	if g.NUMADomains() != 4 {
		t.Errorf("Gadi NUMA domains = %d, want 4", g.NUMADomains())
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	bad := []*Node{
		{Name: "s0", Sockets: 0, CoresPerSocket: 1, SMTPerCore: 1, NUMAPerSocket: 1, CoresPerCCX: 1, BaseGHz: 1, FlopsPerCycleF32: 1, MemBWPerNUMA: 1, SMTYield: 1},
		{Name: "ccx", Sockets: 1, CoresPerSocket: 10, SMTPerCore: 1, NUMAPerSocket: 1, CoresPerCCX: 3, BaseGHz: 1, FlopsPerCycleF32: 1, MemBWPerNUMA: 1, SMTYield: 1},
		{Name: "ghz", Sockets: 1, CoresPerSocket: 4, SMTPerCore: 1, NUMAPerSocket: 1, CoresPerCCX: 4, BaseGHz: 0, FlopsPerCycleF32: 1, MemBWPerNUMA: 1, SMTYield: 1},
		{Name: "smt", Sockets: 1, CoresPerSocket: 4, SMTPerCore: 2, NUMAPerSocket: 1, CoresPerCCX: 4, BaseGHz: 1, FlopsPerCycleF32: 1, MemBWPerNUMA: 1, SMTYield: 0.5},
	}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("%s: expected validation failure", n.Name)
		}
	}
}

func TestPlaceCoreBased(t *testing.T) {
	g := Gadi()
	// One thread per core until 48, then SMT doubling.
	pl := g.Place(24, CoreBased, true)
	if pl.PhysicalCores != 24 || pl.DoubledCores != 0 || pl.SocketsUsed != 1 {
		t.Errorf("24 threads: %+v", pl)
	}
	pl = g.Place(48, CoreBased, true)
	if pl.PhysicalCores != 48 || pl.SocketsUsed != 2 {
		t.Errorf("48 threads: %+v", pl)
	}
	pl = g.Place(96, CoreBased, true)
	if pl.PhysicalCores != 48 || pl.DoubledCores != 48 {
		t.Errorf("96 threads: %+v", pl)
	}
	if pl.ComputeUnits <= 48 || pl.ComputeUnits >= 96 {
		t.Errorf("96-thread compute units = %v, want in (48, 96)", pl.ComputeUnits)
	}
}

func TestPlaceThreadBased(t *testing.T) {
	g := Gadi()
	// Thread-based packing uses half the cores at p=24.
	pl := g.Place(24, ThreadBased, true)
	if pl.PhysicalCores != 12 || pl.DoubledCores != 12 {
		t.Errorf("thread-based 24: %+v", pl)
	}
	// Core-based at same p uses all 24 — this asymmetry drives Fig 7.
	cb := g.Place(24, CoreBased, true)
	if cb.ComputeUnits <= pl.ComputeUnits {
		t.Errorf("core-based should out-compute thread-based at p=24: %v vs %v",
			cb.ComputeUnits, pl.ComputeUnits)
	}
	// Without HT, thread-based degenerates to core-based.
	a := g.Place(20, ThreadBased, false)
	b := g.Place(20, CoreBased, false)
	if a != b {
		t.Errorf("no-HT placements differ: %+v vs %+v", a, b)
	}
}

func TestPlaceClamping(t *testing.T) {
	s := Setonix()
	pl := s.Place(0, CoreBased, true)
	if pl.Threads != 1 {
		t.Errorf("p=0 clamped to %d, want 1", pl.Threads)
	}
	pl = s.Place(10000, CoreBased, true)
	if pl.Threads != 256 {
		t.Errorf("p=10000 clamped to %d, want 256", pl.Threads)
	}
	pl = s.Place(10000, CoreBased, false)
	if pl.Threads != 128 {
		t.Errorf("no-HT p=10000 clamped to %d, want 128", pl.Threads)
	}
}

func TestPlaceNUMAAndCCX(t *testing.T) {
	s := Setonix()
	// 16 cores per NUMA domain on Setonix (64/4).
	pl := s.Place(16, CoreBased, true)
	if pl.NUMAUsed != 1 {
		t.Errorf("16 threads span %d NUMA domains, want 1", pl.NUMAUsed)
	}
	if pl.CCXUsed != 2 {
		t.Errorf("16 threads span %d CCXs, want 2", pl.CCXUsed)
	}
	pl = s.Place(65, CoreBased, true)
	if pl.SocketsUsed != 2 {
		t.Errorf("65 threads span %d sockets, want 2", pl.SocketsUsed)
	}
}

func TestPeakGFLOPS(t *testing.T) {
	g := Gadi()
	want := 48 * 3.2 * 64.0
	if got := g.PeakGFLOPS(true); got < want*0.999 || got > want*1.001 {
		t.Errorf("Gadi FP32 peak = %v, want ~%v", got, want)
	}
	if got := g.PeakGFLOPS(false); got < want/2*0.999 || got > want/2*1.001 {
		t.Errorf("Gadi FP64 peak = %v, want ~%v", got, want/2)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Setonix", "setonix", "Gadi", "gadi"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("Frontier"); err == nil {
		t.Error("ByName(unknown) should fail")
	}
}

func TestAffinityString(t *testing.T) {
	if CoreBased.String() != "cores" || ThreadBased.String() != "threads" {
		t.Error("affinity Strings wrong")
	}
	if AffinityPolicy(9).String() == "" {
		t.Error("unknown policy should still render")
	}
}

// Property: placements are internally consistent for arbitrary p on every
// preset and policy: occupied cores never exceed physical cores, doubled
// cores never exceed occupied, compute units in [1, threads].
func TestPlaceInvariantsProperty(t *testing.T) {
	nodes := []*Node{Setonix(), Gadi()}
	f := func(praw uint16, polRaw, htRaw bool) bool {
		p := int(praw%300) - 10 // include out-of-range values
		pol := CoreBased
		if polRaw {
			pol = ThreadBased
		}
		for _, n := range nodes {
			pl := n.Place(p, pol, htRaw)
			if pl.Threads < 1 || pl.Threads > n.MaxThreads(htRaw) {
				return false
			}
			if pl.PhysicalCores < 1 || pl.PhysicalCores > n.PhysicalCores() {
				return false
			}
			if pl.DoubledCores < 0 || pl.DoubledCores > pl.PhysicalCores {
				return false
			}
			if pl.SocketsUsed < 1 || pl.SocketsUsed > n.Sockets {
				return false
			}
			if pl.NUMAUsed < 1 || pl.NUMAUsed > n.NUMADomains() {
				return false
			}
			if pl.ComputeUnits < 1 || pl.ComputeUnits > float64(pl.Threads)+1e-9 {
				return false
			}
			// Total hardware threads must equal p.
			if pl.PhysicalCores+pl.DoubledCores != pl.Threads {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
