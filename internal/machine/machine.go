// Package machine models the shared-memory HPC node topologies the paper
// experiments on: two-socket NUMA nodes with SMT (hyper-threading), cache
// hierarchies and per-domain memory bandwidth.
//
// The container this reproduction runs in has a single CPU, so the paper's
// 48-core and 128-core nodes cannot be measured physically. Instead, the
// topology here parameterises the analytical performance model in
// internal/simtime, which reproduces the mechanisms the paper's profiling
// identifies (thread synchronisation, packing data-copy and kernel compute;
// Table VII) and the affinity/NUMA effects of §V-B.
package machine

import (
	"fmt"
	"strings"
)

// AffinityPolicy mirrors the OpenMP OMP_PLACES setting studied in Fig 7.
type AffinityPolicy int

const (
	// CoreBased (OMP_PLACES=cores) binds one software thread per physical
	// core until all cores are occupied, then starts doubling up on SMT
	// siblings. This is the policy the paper adopts for all experiments.
	CoreBased AffinityPolicy = iota
	// ThreadBased (OMP_PLACES=threads) binds threads to hardware threads in
	// order, packing both SMT siblings of a core before moving to the next
	// core. For p below half the hardware-thread count it therefore uses
	// only ~p/2 physical cores, which Fig 7 shows is slower.
	ThreadBased
)

// String returns the OpenMP spelling of the policy.
func (a AffinityPolicy) String() string {
	switch a {
	case CoreBased:
		return "cores"
	case ThreadBased:
		return "threads"
	default:
		return fmt.Sprintf("AffinityPolicy(%d)", int(a))
	}
}

// Node describes a two-socket shared-memory compute node.
type Node struct {
	Name           string
	Sockets        int
	CoresPerSocket int
	SMTPerCore     int // hardware threads per core (2 with hyper-threading)
	NUMAPerSocket  int
	CoresPerCCX    int // cores sharing one last-level cache slice

	BaseGHz float64 // sustained clock under vector load

	// FlopsPerCycleF32 is the peak single-precision FLOPs per cycle per core
	// (FMA counted as two FLOPs). FP64 peak is assumed to be half.
	FlopsPerCycleF32 float64

	L2KBPerCore float64
	L3MBPerCCX  float64

	// MemBWPerNUMA is the sustainable memory bandwidth of one NUMA domain in
	// GB/s. InterSocketBW is the cross-socket link bandwidth (UPI / xGMI).
	MemBWPerNUMA  float64
	InterSocketBW float64

	// SMTYield is the aggregate throughput of a core running two SMT threads
	// relative to one (e.g. 1.25 = 25% more than a single thread). FP-bound
	// GEMM gains little from SMT.
	SMTYield float64

	// Synchronisation cost model: a barrier across p threads costs
	// SyncBaseNs + SyncPerThreadNs*p, plus SyncCrossSocketNs per thread when
	// the team spans both sockets.
	SyncBaseNs        float64
	SyncPerThreadNs   float64
	SyncCrossSocketNs float64

	// SpawnPerThreadNs is the per-thread fork/join (team wake-up) cost paid
	// once per GEMM call.
	SpawnPerThreadNs float64

	// CoherenceNs is the cost of one contended cache-line transfer during
	// reductions into shared C when more threads run than there are C tiles
	// (the k-split regime). This drives the pathological max-thread times of
	// Table VII.
	CoherenceNs float64
}

// Validate reports whether the topology is internally consistent.
func (n *Node) Validate() error {
	switch {
	case n.Sockets < 1:
		return fmt.Errorf("machine %q: sockets %d < 1", n.Name, n.Sockets)
	case n.CoresPerSocket < 1:
		return fmt.Errorf("machine %q: cores/socket %d < 1", n.Name, n.CoresPerSocket)
	case n.SMTPerCore < 1:
		return fmt.Errorf("machine %q: SMT/core %d < 1", n.Name, n.SMTPerCore)
	case n.NUMAPerSocket < 1:
		return fmt.Errorf("machine %q: NUMA/socket %d < 1", n.Name, n.NUMAPerSocket)
	case n.CoresPerCCX < 1 || n.CoresPerSocket%n.CoresPerCCX != 0:
		return fmt.Errorf("machine %q: cores/CCX %d must divide cores/socket %d", n.Name, n.CoresPerCCX, n.CoresPerSocket)
	case n.BaseGHz <= 0 || n.FlopsPerCycleF32 <= 0 || n.MemBWPerNUMA <= 0:
		return fmt.Errorf("machine %q: non-positive rate parameters", n.Name)
	case n.SMTYield < 1:
		return fmt.Errorf("machine %q: SMT yield %v < 1", n.Name, n.SMTYield)
	}
	return nil
}

// PhysicalCores returns the number of physical cores in the node.
func (n *Node) PhysicalCores() int { return n.Sockets * n.CoresPerSocket }

// MaxThreads returns the largest usable thread count: hardware threads when
// ht is true, physical cores otherwise.
func (n *Node) MaxThreads(ht bool) int {
	if ht {
		return n.PhysicalCores() * n.SMTPerCore
	}
	return n.PhysicalCores()
}

// NUMADomains returns the total number of NUMA domains.
func (n *Node) NUMADomains() int { return n.Sockets * n.NUMAPerSocket }

// PeakGFLOPS returns the node-wide peak in GFLOPS for single (f32=true) or
// double precision.
func (n *Node) PeakGFLOPS(f32 bool) float64 {
	per := n.FlopsPerCycleF32
	if !f32 {
		per /= 2
	}
	return float64(n.PhysicalCores()) * n.BaseGHz * per
}

// Placement describes how a team of p threads lands on the node under a
// given affinity policy.
type Placement struct {
	Threads       int
	PhysicalCores int     // distinct cores occupied
	DoubledCores  int     // cores carrying two SMT threads
	SocketsUsed   int     // sockets spanned by the team
	NUMAUsed      int     // NUMA domains spanned by the team's cores
	CCXUsed       int     // last-level-cache groups spanned
	ComputeUnits  float64 // core-equivalents of FP throughput
}

// Place computes the placement of p threads under the policy. Threads bind
// "close": cores fill in order within socket 0, then socket 1, matching
// OpenMP's default OMP_PROC_BIND=close used with explicit places. p is
// clamped to [1, MaxThreads(ht)].
func (n *Node) Place(p int, policy AffinityPolicy, ht bool) Placement {
	if p < 1 {
		p = 1
	}
	if max := n.MaxThreads(ht); p > max {
		p = max
	}
	var cores, doubled int
	switch policy {
	case ThreadBased:
		if ht && n.SMTPerCore > 1 {
			// Both SMT siblings of each core are consumed before the next
			// core is touched.
			cores = (p + n.SMTPerCore - 1) / n.SMTPerCore
			doubled = p / n.SMTPerCore
		} else {
			cores, doubled = p, 0
		}
	default: // CoreBased
		if p <= n.PhysicalCores() {
			cores, doubled = p, 0
		} else {
			cores = n.PhysicalCores()
			doubled = p - n.PhysicalCores()
		}
	}

	coresPerNUMA := n.CoresPerSocket / n.NUMAPerSocket
	pl := Placement{
		Threads:       p,
		PhysicalCores: cores,
		DoubledCores:  doubled,
		SocketsUsed:   ceilDiv(cores, n.CoresPerSocket),
		NUMAUsed:      ceilDiv(cores, coresPerNUMA),
		CCXUsed:       ceilDiv(cores, n.CoresPerCCX),
	}
	single := float64(cores - doubled)
	pl.ComputeUnits = single + float64(doubled)*n.SMTYield
	return pl
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Setonix returns the topology of a Setonix compute node: two AMD EPYC
// "Milan" 64-core Zen 3 sockets at 2.55 GHz, eight 8-core CCXs per socket
// each with 32 MB of L3, four NUMA domains per socket (NPS4) and eight
// memory channels per socket (§V-A.1).
func Setonix() *Node {
	return &Node{
		Name:              "Setonix",
		Sockets:           2,
		CoresPerSocket:    64,
		SMTPerCore:        2,
		NUMAPerSocket:     4,
		CoresPerCCX:       8,
		BaseGHz:           2.55,
		FlopsPerCycleF32:  32, // AVX2: 2 FMA pipes × 8 lanes × 2 flops
		L2KBPerCore:       512,
		L3MBPerCCX:        32,
		MemBWPerNUMA:      25, // ~200 GB/s per socket over 4 domains
		InterSocketBW:     50,
		SMTYield:          1.18,
		SyncBaseNs:        2000,
		SyncPerThreadNs:   40,
		SyncCrossSocketNs: 25,
		SpawnPerThreadNs:  250,
		CoherenceNs:       10,
	}
}

// Gadi returns the topology of a Gadi compute node: two Intel Xeon Platinum
// 8274 "Cascade Lake" 24-core sockets at 3.2 GHz, two NUMA domains per
// socket and six memory channels per socket (§V-A.2).
func Gadi() *Node {
	return &Node{
		Name:              "Gadi",
		Sockets:           2,
		CoresPerSocket:    24,
		SMTPerCore:        2,
		NUMAPerSocket:     2,
		CoresPerCCX:       24, // monolithic shared L3 per socket
		BaseGHz:           3.2,
		FlopsPerCycleF32:  64, // AVX-512: 2 FMA pipes × 16 lanes × 2 flops
		L2KBPerCore:       1024,
		L3MBPerCCX:        35.75,
		MemBWPerNUMA:      35, // ~140 GB/s per socket over 2 domains
		InterSocketBW:     41, // 3× UPI links
		SMTYield:          1.15,
		SyncBaseNs:        1500,
		SyncPerThreadNs:   80,
		SyncCrossSocketNs: 60,
		SpawnPerThreadNs:  400,
		CoherenceNs:       30,
	}
}

// ByName returns a preset topology by name, ignoring case.
func ByName(name string) (*Node, error) {
	switch strings.ToLower(name) {
	case "setonix":
		return Setonix(), nil
	case "gadi":
		return Gadi(), nil
	default:
		return nil, fmt.Errorf("machine: unknown preset %q (want Setonix or Gadi)", name)
	}
}
