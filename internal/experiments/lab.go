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

// testbeds are the paper's two platforms in its column order, each with the
// vendor BLAS its baseline ran. The label is for display only: the timer,
// sweep and reference thread count of a platform come from core.Recipe.
var testbeds = []struct{ name, blas string }{{"Setonix", "BLIS"}, {"Gadi", "MKL"}}

// blasName is the display label of a testbed's vendor BLAS.
func blasName(platform string) string {
	for _, bed := range testbeds {
		if bed.name == platform {
			return bed.blas
		}
	}
	return "BLAS"
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

// options are the install options of a (platform, cap, ht) run at the
// lab's scale: what adsala.Train is given for the same install.
func (l *Lab) options(platform string, capMB int, ht bool) core.InstallOptions {
	return core.InstallOptions{
		Platform: platform,
		CapMB:    capMB,
		Shapes:   l.Scale.TrainShapes,
		Iters:    l.Scale.Iters,
		Quick:    l.Scale.QuickModels,
		NoHT:     !ht,
		Seed:     l.Scale.Seed,
	}
}

// Config is the install recipe Train runs for (platform, cap, ht):
// core.Recipe of the lab's options.
func (l *Lab) Config(platform string, capMB int, ht bool) (core.TrainConfig, error) {
	return core.Recipe(l.options(platform, capMB, ht))
}

// Sim is the simulator the platform's install times on (the lab's seed as
// its noise seed), for studies that query it directly.
func (l *Lab) Sim(platform string, ht bool) (*simtime.Simulator, error) {
	return core.Simulator(l.options(platform, 0, ht))
}

// Train returns the memoised installation run for (platform, cap, ht).
func (l *Lab) Train(platform string, capMB int, ht bool) (*core.TrainResult, error) {
	key := fmt.Sprintf("%s/%d/%v", platform, capMB, ht)
	l.mu.Lock()
	if res, ok := l.trains[key]; ok {
		l.mu.Unlock()
		return res, nil
	}
	l.mu.Unlock()

	cfg, err := l.Config(platform, capMB, ht)
	if err != nil {
		return nil, err
	}
	res, err := core.Train(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: training %s: %w", key, err)
	}
	l.mu.Lock()
	l.trains[key] = res
	l.mu.Unlock()
	return res, nil
}

// evaluation returns the install for (platform, cap, ht), its holdout and
// the recipe's reference thread count: what every speedup study compares.
func (l *Lab) evaluation(platform string, capMB int, ht bool) (*core.TrainResult, []core.ShapeTimings, int, error) {
	cfg, err := l.Config(platform, capMB, ht)
	if err != nil {
		return nil, nil, 0, err
	}
	res, err := l.Train(platform, capMB, ht)
	if err != nil {
		return nil, nil, 0, err
	}
	holdout, err := l.Holdout(platform, capMB, ht)
	return res, holdout, cfg.ReferenceThreads, err
}

// Holdout samples the independent low-discrepancy evaluation set used by
// Tables V/VI and Figs 10-12 (§VI-C), timed on the install's simulator:
// the recipe's sweep with the holdout's shape count and a sampler seed
// 7919 past the install's (a disjoint scramble). The simulator keeps the
// install's noise seed.
func (l *Lab) Holdout(platform string, capMB int, ht bool) ([]core.ShapeTimings, error) {
	cfg, err := l.Config(platform, capMB, ht)
	if err != nil {
		return nil, err
	}
	g := cfg.Gather
	g.NumShapes = l.Scale.HoldoutShapes
	g.Seed = l.Scale.Seed + 7919
	return core.Gather(g)
}
