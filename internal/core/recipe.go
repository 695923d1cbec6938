package core

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// InstallOptions configures installation-time training.
type InstallOptions struct {
	// Platform selects the timing substrate: "Setonix" or "Gadi" train
	// against the corresponding simulated HPC node; "local" times the
	// built-in GEMM kernels on this machine.
	Platform string
	// CapMB bounds the aggregate GEMM footprint of the sampled shapes
	// (paper: 100 or 500). Default 500 for simulated platforms, 64 for
	// local.
	CapMB int
	// Shapes is the number of sampled GEMM shapes (paper: 1763).
	// Default 300 (simulated) / 40 (local).
	Shapes int
	// Iters is the number of timing repetitions per configuration
	// (paper: 10). Default 3.
	Iters int
	// Quick shrinks model grids and ensemble sizes (for demos and tests).
	Quick bool
	// NoHT disables hyper-threading on simulated platforms (hyper-threading
	// is on by default; setting NoHT caps thread counts at the physical
	// core count).
	NoHT bool
	Seed int64
	// Ops lists the operations to train per-op models for, beyond the
	// always-trained GEMM (e.g. [OpSYRK, OpSYR2K]). Each op gathers its own
	// timing sweep through its registered kernel and cost profile; ops
	// without a model fall back to the GEMM model at serving time.
	Ops []ops.Op
}

// seed is Seed with its default: 1.
func (o InstallOptions) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Recipe is the install recipe of Fig 2 and the one place a platform name
// becomes a sweep: it picks the timer, the sampling domain, the candidate
// thread counts, the reference (baseline) thread count and the defaults, and
// returns the TrainConfig that Train runs. A simulated node sweeps every
// hardware thread it has (the physical cores with NoHT) against a
// physical-core baseline; "local" sweeps and baselines at HostThreads.
func Recipe(opts InstallOptions) (TrainConfig, error) {
	seed := opts.seed()
	iters := opts.Iters
	if iters == 0 {
		iters = 3
	}
	var (
		timer      simtime.Timer
		maxThreads int
		refThreads int
		platform   string
		capMB      = opts.CapMB
		shapes     = opts.Shapes
		domain     = sampling.DefaultDomain()
	)
	if strings.EqualFold(opts.Platform, "local") {
		timer = simtime.NewRealTimer()
		// Nothing above HostThreads is ever executed here, so nothing
		// above it is timed.
		maxThreads = HostThreads()
		refThreads = HostThreads()
		platform = "local"
		if capMB == 0 {
			capMB = 64
		}
		if shapes == 0 {
			shapes = 40
		}
		// Local timing of the built-in kernels: keep shapes small enough to
		// finish quickly.
		domain.MaxDim = 768
	} else {
		sim, err := Simulator(opts)
		if err != nil {
			return TrainConfig{}, err
		}
		node := sim.Config().Node
		timer = sim
		maxThreads = sim.MaxThreads()
		refThreads = node.PhysicalCores()
		platform = node.Name
		if capMB == 0 {
			capMB = 500
		}
		if shapes == 0 {
			shapes = 300
		}
	}

	gather := GatherConfig{
		Timer:      timer,
		Domain:     domain.WithCapMB(capMB),
		NumShapes:  shapes,
		Candidates: DefaultCandidates(maxThreads),
		Iters:      iters,
		Seed:       seed,
	}
	cfg := DefaultTrainConfig(gather, platform, refThreads)
	cfg.Models = DefaultModels(seed, opts.Quick)
	cfg.Ops = opts.Ops
	return cfg, nil
}

// Simulator returns the simulated node Recipe times opts on: the node's
// default simulator with hyper-threading unless NoHT and the install seed as
// its noise seed. Studies that query the install's timer directly (its
// noiseless Breakdown, or Measure outside the sweep) build it here. The
// empty platform is Gadi; "local" has no simulator and is an error.
func Simulator(opts InstallOptions) (*simtime.Simulator, error) {
	node := machine.Gadi()
	if opts.Platform != "" {
		var err error
		if node, err = machine.ByName(opts.Platform); err != nil {
			return nil, fmt.Errorf("core: unknown platform %q (want Setonix, Gadi or local)", opts.Platform)
		}
	}
	cfg := simtime.DefaultConfig(node)
	cfg.HT = !opts.NoHT
	cfg.Seed = opts.seed()
	return simtime.New(cfg), nil
}

// HostThreads is the most threads a call can run on here — the one
// definition of "feasible" that sizes the local install sweep (Recipe), the
// ranked view of a loaded library and the execution guard of the BLAS
// facade.
func HostThreads() int { return runtime.GOMAXPROCS(0) }
