// Package experiments regenerates every table and figure of the paper's
// evaluation section as text output: histograms (Figs 1, 8), distribution
// checks (Fig 4), affinity curves (Fig 7), optimal-thread and speedup
// heatmaps (Figs 9, 10), the model-comparison tables (III, IV), speedup
// statistics (V, VI), GFLOPS series (Figs 11-14) and the profiling breakdown
// (Table VII), plus three ablations the paper does not run: the
// preprocessing stack, the Group 2 features and the runtime-regression
// target, each removed in turn to show what it contributes.
//
// Experiments share a Lab, which memoises the expensive artefacts (gathered
// timing sweeps and trained libraries) per platform and memory cap.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// Scale sizes the experiments. The paper's full scale (1763 shapes) is
// reachable but slow on one CPU; Default is a faithful reduction and Quick
// is for tests/benchmarks.
type Scale struct {
	TrainShapes   int // shapes in the training sweep (paper: 1763)
	HoldoutShapes int // independent low-discrepancy holdout (paper: 174)
	Iters         int // timing repetitions (paper: 10)
	QuickModels   bool
	Seed          int64
}

// DefaultScale is the standard reduction used by cmd/adsala-bench.
func DefaultScale() Scale {
	return Scale{TrainShapes: 300, HoldoutShapes: 174, Iters: 3, QuickModels: false, Seed: 1}
}

// QuickScale is used by unit tests and testing.B benchmarks.
func QuickScale() Scale {
	return Scale{TrainShapes: 70, HoldoutShapes: 40, Iters: 2, QuickModels: true, Seed: 1}
}

// PaperScale matches the paper's dataset sizes (slow: hours on one core).
func PaperScale() Scale {
	return Scale{TrainShapes: 1763, HoldoutShapes: 174, Iters: 10, QuickModels: false, Seed: 1}
}

// Platform bundles a simulated node with its experiment parameters.
type Platform struct {
	Name       string
	Node       *machine.Node
	RefThreads int // speedup baseline: physical core count
	BLASName   string
}

// Platforms returns the paper's two testbeds.
func Platforms() []Platform {
	return []Platform{
		{Name: "Setonix", Node: machine.Setonix(), RefThreads: 128, BLASName: "BLIS"},
		{Name: "Gadi", Node: machine.Gadi(), RefThreads: 48, BLASName: "MKL"},
	}
}

// PlatformByName returns the named platform.
func PlatformByName(name string) (Platform, error) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("experiments: unknown platform %q", name)
}

// Lab memoises gathers and trainings shared across experiments.
type Lab struct {
	Scale Scale

	mu     sync.Mutex
	trains map[string]*core.TrainResult
}

// NewLab returns a Lab at the given scale.
func NewLab(sc Scale) *Lab {
	return &Lab{Scale: sc, trains: make(map[string]*core.TrainResult)}
}

// Sim builds the standard simulator for a platform (HT on, core affinity,
// SGEMM, 4% noise).
func (l *Lab) Sim(p Platform, ht bool) *simtime.Simulator {
	cfg := simtime.DefaultConfig(p.Node)
	cfg.HT = ht
	cfg.Seed = l.Scale.Seed
	return simtime.New(cfg)
}

// gatherConfig assembles the sweep settings for a platform and memory cap.
func (l *Lab) gatherConfig(p Platform, capMB int, ht bool) core.GatherConfig {
	return core.GatherConfig{
		Timer:      l.Sim(p, ht),
		Domain:     sampling.DefaultDomain().WithCapMB(capMB),
		NumShapes:  l.Scale.TrainShapes,
		Candidates: core.DefaultCandidates(p.Node.MaxThreads(ht)),
		Iters:      l.Scale.Iters,
		Seed:       l.Scale.Seed,
	}
}

// Train returns the memoised installation run for (platform, cap, ht).
func (l *Lab) Train(p Platform, capMB int, ht bool) (*core.TrainResult, error) {
	key := fmt.Sprintf("%s/%d/%v", p.Name, capMB, ht)
	l.mu.Lock()
	if res, ok := l.trains[key]; ok {
		l.mu.Unlock()
		return res, nil
	}
	l.mu.Unlock()

	ref := p.RefThreads
	cfg := core.DefaultTrainConfig(l.gatherConfig(p, capMB, ht), p.Name, ref)
	cfg.Models = core.DefaultModels(l.Scale.Seed, l.Scale.QuickModels)
	res, err := core.Train(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: training %s: %w", key, err)
	}
	l.mu.Lock()
	l.trains[key] = res
	l.mu.Unlock()
	return res, nil
}

// Holdout samples the independent low-discrepancy evaluation set used by
// Tables V/VI and Figs 10-12 (§VI-C), timed on the same simulator.
func (l *Lab) Holdout(p Platform, capMB int, ht bool) ([]core.ShapeTimings, error) {
	cfg := l.gatherConfig(p, capMB, ht)
	cfg.NumShapes = l.Scale.HoldoutShapes
	cfg.Seed = l.Scale.Seed + 7919 // disjoint scramble from the training sweep
	return core.Gather(cfg)
}
