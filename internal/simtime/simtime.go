// Package simtime provides BLAS-3 wall-time measurement backends for ADSALA.
//
// Two backends implement the Timer interface:
//
//   - Simulator: an analytical performance model of multi-threaded GEMM on a
//     machine.Node topology. It decomposes wall time into the same three
//     components the paper's VTune profiling isolates in Table VII — thread
//     synchronisation, data copy (panel packing) and kernel FLOPs — plus the
//     per-call thread-team fork/join cost, and adds seeded log-normal
//     measurement noise. This stands in for exclusive access to the Setonix
//     and Gadi nodes, which cannot be reproduced on this container.
//
//   - RealTimer (realtimer.go): wall-clock timing of the built-in blas
//     kernels on the local host, used by tests and the quickstart example.
//
// The mechanisms modelled, and the paper observations they reproduce:
//
//   - fork/join and barrier costs grow linearly in the thread count, so
//     small GEMMs prefer few threads (Figs 1, 8);
//   - packing traffic becomes increasingly redundant as threads shrink the
//     per-thread block below panel granularity, which is what makes
//     64×2048×64 at max threads ~100× slower than at 14 threads (Table VII);
//   - kernel efficiency needs enough K to amortise tile load/store and
//     enough M×N tiles to feed all threads, so skinny shapes cannot use the
//     full machine (Figs 13, 14);
//   - aggregate memory bandwidth saturates per NUMA domain and crossing the
//     socket boundary adds latency, so the optimal count often sits near a
//     topology boundary (Fig 9);
//   - thread-based affinity halves the physical cores used for p below half
//     the hardware-thread count (Fig 7); SMT siblings yield only ~15-20%
//     extra throughput (Tables V vs VI).
package simtime

import (
	"math"

	"repro/internal/machine"
	"repro/internal/ops"
)

// Timer is the install-time measuring step (Fig 2, §V-B.3): the mean wall
// time in seconds of iters calls (at least 1) of a registered operation at
// its canonical (m, k, n) feature triple on the given number of threads.
// How a configuration is measured — repetitions, aggregation, operand reuse
// — is each backend's Measure and nothing else.
type Timer interface {
	Measure(op ops.Op, m, k, n, threads, iters int) float64
}

// Config parameterises a Simulator.
type Config struct {
	Node   *machine.Node
	Policy machine.AffinityPolicy
	HT     bool // hyper-threading enabled (thread counts may exceed cores)
	Seed   int64
}

// DefaultConfig returns a Simulator configuration for the given node with
// hyper-threading on, core-based affinity and seed 1.
func DefaultConfig(node *machine.Node) Config {
	return Config{
		Node:   node,
		Policy: machine.CoreBased,
		HT:     true,
		Seed:   1,
	}
}

const (
	// noiseSigma is the standard deviation of the multiplicative log-normal
	// measurement noise. The paper runs 10 iterations per configuration to
	// suppress exactly this noise.
	noiseSigma = 0.04
	// elemBytes is the element size of the simulated SGEMM.
	elemBytes = 4
	// nc and kc are the panel sizes of the simulated BLAS, which drive the
	// barrier count and the packing volume.
	nc, kc = 4096, 256
)

// Breakdown is the wall-time decomposition of one GEMM call, in seconds.
// It matches the component split of Table VII (spawn folded into Sync there).
type Breakdown struct {
	Spawn  float64 // thread-team fork/join
	Sync   float64 // barrier synchronisation
	Copy   float64 // panel packing data movement
	Kernel float64 // micro-kernel FLOPs (incl. memory-bound stalls)
}

// Total returns the summed wall time.
func (b Breakdown) Total() float64 { return b.Spawn + b.Sync + b.Copy + b.Kernel }

// Simulator is an analytical GEMM timing model over a node topology.
// It is safe for concurrent use.
type Simulator struct {
	cfg Config
}

// New returns a Simulator for the configuration. It panics if the node is
// missing or invalid — configuration is programmer error, not runtime input.
func New(cfg Config) *Simulator {
	if cfg.Node == nil {
		panic("simtime: Config.Node is nil")
	}
	if err := cfg.Node.Validate(); err != nil {
		panic("simtime: " + err.Error())
	}
	return &Simulator{cfg: cfg}
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// MaxThreads returns the largest thread count the simulated platform runs.
func (s *Simulator) MaxThreads() int { return s.cfg.Node.MaxThreads(s.cfg.HT) }

// grainFlops is the library's internal dynamic-threading grain: like MKL
// with MKL_DYNAMIC (the default) or BLIS's small-matrix paths, the simulated
// BLAS never spawns more threads than flops/grainFlops, however many the
// caller requests. This is why even the max-thread baseline is not
// arbitrarily slow on minuscule GEMMs.
const grainFlops = 50_000

// EffectiveThreads returns the thread count the simulated library actually
// runs for the given problem when threads are requested.
func (s *Simulator) EffectiveThreads(m, k, n, threads int) int {
	flops := 2 * float64(m) * float64(k) * float64(n)
	cap := int(math.Ceil(flops / grainFlops))
	if cap < 1 {
		cap = 1
	}
	if threads > cap {
		return cap
	}
	if threads < 1 {
		return 1
	}
	return threads
}

// Breakdown returns the noiseless wall-time decomposition for one GEMM.
func (s *Simulator) Breakdown(m, k, n, threads int) Breakdown {
	node := s.cfg.Node
	pl := node.Place(s.EffectiveThreads(m, k, n, threads), s.cfg.Policy, s.cfg.HT)
	p := float64(pl.Threads)

	flops := 2 * float64(m) * float64(k) * float64(n)

	// --- Fork/join -------------------------------------------------------
	spawn := node.SpawnPerThreadNs * p * 1e-9

	// --- Barriers --------------------------------------------------------
	// One barrier after the shared B-pack and one closing each (jc, pc)
	// iteration, plus the final join.
	iters := float64(ceilDiv(n, nc) * ceilDiv(k, kc))
	barrier := node.SyncBaseNs + node.SyncPerThreadNs*p
	if pl.SocketsUsed > 1 {
		barrier += node.SyncCrossSocketNs * p
	}
	sync := (2*iters + 1) * barrier * 1e-9
	if pl.Threads == 1 {
		sync = 0 // single thread: no barriers at all
		spawn = 0
	}

	// --- Effective memory bandwidth --------------------------------------
	// Interleaved NUMA policy spreads pages over every domain; accesses from
	// the occupied domains to the rest cross the socket link.
	bw := s.effectiveBandwidth(pl)

	// --- Packing (data copy) ---------------------------------------------
	copySec := s.copyTime(m, k, n, pl, bw, flops)

	// --- Kernel ------------------------------------------------------------
	kernel := s.kernelTime(m, k, n, pl, bw, flops)

	return Breakdown{Spawn: spawn, Sync: sync, Copy: copySec, Kernel: kernel}
}

// effectiveBandwidth returns the aggregate streaming bandwidth, in bytes/s,
// available to the placed team under the interleave NUMA policy.
func (s *Simulator) effectiveBandwidth(pl machine.Placement) float64 {
	node := s.cfg.Node
	numaTotal := float64(node.NUMADomains())
	numaUsed := float64(pl.NUMAUsed)
	// A single core cannot saturate a domain: per-core streaming capability.
	perCore := node.MemBWPerNUMA / 3.0
	demand := float64(pl.PhysicalCores) * perCore

	// Interleaved pages: fraction local to the occupied domains vs remote.
	localFrac := numaUsed / numaTotal
	localCap := numaUsed * node.MemBWPerNUMA
	remoteCap := node.InterSocketBW
	if pl.SocketsUsed == node.Sockets {
		// Team spans all sockets: every domain is "local" to some thread.
		localFrac, localCap = 1, numaTotal*node.MemBWPerNUMA
	}
	cap := localFrac*localCap + (1-localFrac)*minF(remoteCap, localCap)
	return minF(demand, cap) * 1e9 // GB/s → B/s
}

// tileDim is the register tile edge of the simulated vendor kernel; C
// exposes ceil(m/tileDim)*ceil(n/tileDim) independent tiles of parallelism.
const tileDim = 8

// cTiles returns the number of independent C tiles.
func cTiles(m, n int) float64 {
	return math.Ceil(float64(m)/tileDim) * math.Ceil(float64(n)/tileDim)
}

// copyTime models panel-packing cost. Packed volume is the BLIS baseline
// (B packed once per panel sweep, A repacked per jc block). Two degradations
// apply:
//
//   - mild duplication and bandwidth loss as the per-thread work shrinks
//     (threads touch overlapping panels);
//   - the k-split regime: when the team is larger than the number of C
//     tiles, threads must split the K dimension and reduce into shared C
//     through contended cache lines. This coherence storm is the mechanism
//     behind the 163 ms data-copy time of 64×2048×64 at 96 threads in
//     Table VII.
func (s *Simulator) copyTime(m, k, n int, pl machine.Placement, bw, flops float64) float64 {
	node := s.cfg.Node
	p := float64(pl.Threads)

	if pl.Threads == 1 {
		// Single-threaded small GEMM takes the unpacked direct path when the
		// operands fit in the last-level cache.
		bytes := elemBytes * (float64(m)*float64(k) + float64(k)*float64(n) + float64(m)*float64(n))
		l3 := node.L3MBPerCCX * 1e6 * float64(pl.CCXUsed)
		if bytes <= l3 {
			return 0
		}
	}

	volA := float64(m) * float64(k) * float64(ceilDiv(n, nc))
	volB := float64(k) * float64(n)
	vol := (volA + volB) * elemBytes

	// Mild duplication: per-thread useful work below ~1 MFLOP makes packing
	// partially duplicated across the team.
	perThreadWork := flops / p
	smallness := 1.0 / (1.0 + perThreadWork/3e5)
	redundancy := 1 + 0.12*(p-1)*smallness
	copyBW := bw / (1 + 0.03*p*smallness)
	t := vol * redundancy / copyBW

	// K-split coherence storm: with s = p/tiles threads sharing each C tile,
	// s partial results are reduced into shared cache lines, re-walked once
	// per KC panel (bounded: the library re-blocks very deep K).
	tiles := cTiles(m, n)
	if p > tiles {
		sharers := p / tiles
		rounds := math.Min(float64(ceilDiv(k, kc)), 6)
		linesC := float64(m) * float64(n) * elemBytes / 64
		t += linesC * sharers * rounds * p * node.CoherenceNs * 1e-9
	}
	return t
}

// kernelTime models the packed micro-kernel phase as a roofline of compute
// and memory streaming, degraded by K-amortisation, tile granularity and
// load imbalance.
func (s *Simulator) kernelTime(m, k, n int, pl machine.Placement, bw, flops float64) float64 {
	node := s.cfg.Node
	perCoreGF := node.BaseGHz * node.FlopsPerCycleF32

	// Tile-level parallelism: the jr/ir loops expose ceil(m/8)*ceil(n/8)
	// register tiles.
	tiles := cTiles(m, n)
	busy := minF(float64(pl.Threads), tiles)
	// Load imbalance: each busy thread owns ceil(tiles/busy) tiles.
	imbalance := math.Ceil(tiles/busy) * busy / tiles

	// Fraction of the team that has work, converted to compute units.
	units := pl.ComputeUnits * busy / float64(pl.Threads)

	// K-amortisation: short K cannot hide tile load/store latency.
	eK := float64(k) / (float64(k) + 48)
	// Achievable fraction of peak for well-formed panels.
	const eBase = 0.80
	// Tiny M or N leaves vector lanes idle inside the tile.
	eM := minF(1, float64(m)/tileDim)
	eN := minF(1, float64(n)/tileDim)

	rate := units * perCoreGF * 1e9 * eBase * eK * eM * eN
	tFlops := flops * imbalance / rate

	// K-split regime: threads sharing a C tile run tiny rank-k chunks whose
	// per-invocation overhead dwarfs the FLOPs.
	if p := float64(pl.Threads); p > tiles {
		tFlops *= 1 + 0.3*(p-tiles)
	}

	// Memory-bound floor: each operand streamed at least once per KC sweep.
	bytes := elemBytes * (float64(m)*float64(k) + float64(k)*float64(n) + 2*float64(m)*float64(n))
	tMem := bytes / bw
	return maxF(tFlops, tMem)
}

// Measure returns the mean of iters noisy measurements of one op call,
// matching the paper's 10-iteration timing loop (§V-B.3). It is a
// deterministic function of its arguments and the configured seed, so
// identical experiments reproduce.
func (s *Simulator) Measure(op ops.Op, m, k, n, threads, iters int) float64 {
	if iters < 1 {
		panic("simtime: Measure needs iters >= 1")
	}
	t := s.BreakdownOp(op, m, k, n, threads).Total()
	var sum float64
	for r := 0; r < iters; r++ {
		sum += t * s.noise(op, m, k, n, threads, r)
	}
	return sum / float64(iters)
}

// noise returns the multiplicative log-normal error of the rep-th
// measurement of the configuration. Non-GEMM ops mix the op into the hash,
// so per-op sweeps of the same triple see independent measurement noise (as
// separate real runs would); GEMM keeps the draw of the paper's sweep.
func (s *Simulator) noise(op ops.Op, m, k, n, threads, rep int) float64 {
	var h uint64
	if op == ops.GEMM {
		h = hash6(s.cfg.Seed, int64(m), int64(k), int64(n), int64(threads), int64(rep))
	} else {
		h = hash6(s.cfg.Seed, int64(op)+0x5ca1ab1e, int64(m), int64(k), int64(n), int64(threads), int64(rep))
	}
	return math.Exp(noiseSigma*gaussian(h) - 0.5*noiseSigma*noiseSigma)
}

// GFLOPS returns the noiseless throughput of the configuration in GFLOPS.
func (s *Simulator) GFLOPS(m, k, n, threads int) float64 {
	t := s.Breakdown(m, k, n, threads).Total()
	return 2 * float64(m) * float64(k) * float64(n) / t / 1e9
}

var _ Timer = (*Simulator)(nil)

// hash6 mixes six 64-bit values with a splitmix64-style finaliser.
func hash6(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// gaussian converts a uniform hash to a standard normal via Box-Muller.
func gaussian(h uint64) float64 {
	u1 := (float64(h>>11) + 0.5) / float64(1<<53)
	u2 := (float64((h*0x9e3779b97f4a7c15)>>11) + 0.5) / float64(1<<53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
