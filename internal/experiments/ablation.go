package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/ops"
	"repro/internal/preprocess"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

// AblationPreproc quantifies the contribution of the preprocessing stack
// (§IV-C), which the paper applies but does not measure on its own:
// estimated mean speedup of the shipped XGBoost model with the full
// pipeline vs no Yeo-Johnson/LOF/correlation pruning.
func AblationPreproc(w io.Writer, lab *Lab) error {
	full, err := lab.Train("Gadi", 500, true)
	if err != nil {
		return err
	}
	cfg, err := xgbOnly(lab)
	if err != nil {
		return err
	}
	// Yeo-Johnson and scaling always apply; LOF and correlation pruning are
	// off.
	cfg.Preproc = preprocess.Options{LogTarget: true}
	bare, err := core.TrainOnData(cfg, full.OpData[ops.GEMM], nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: preprocessing stack (Gadi, <= 500 MB, XGBoost)")
	tb := tabulate.New("pipeline", "features kept", "est mean speedup", "est agg speedup")
	fullXGB := reportFor(full, "xgb")
	bareXGB := reportFor(bare, "xgb")
	tb.Row("full (YJ+LOF+corr prune)", tabulate.D(len(full.Library.ModelFor(ops.GEMM).Pipeline.Keep)),
		tabulate.F(fullXGB.EstMean, 2), tabulate.F(fullXGB.EstAgg, 2))
	tb.Row("no LOF / no pruning", tabulate.D(len(bare.Library.ModelFor(ops.GEMM).Pipeline.Keep)),
		tabulate.F(bareXGB.EstMean, 2), tabulate.F(bareXGB.EstAgg, 2))
	fmt.Fprint(w, tb.String())
	return nil
}

// AblationFeatures compares the full Table II feature set against Group 1
// (serial terms) alone.
func AblationFeatures(w io.Writer, lab *Lab) error {
	full, err := lab.Train("Gadi", 500, true)
	if err != nil {
		return err
	}

	// Retrain XGBoost with only Group 1 columns by re-deriving the dataset.
	cfg, err := xgbOnly(lab)
	if err != nil {
		return err
	}
	g1, err := core.TrainOnData(cfg, full.OpData[ops.GEMM], features.Group1Columns())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: feature groups (Gadi, <= 500 MB, XGBoost)")
	tb := tabulate.New("feature set", "est mean speedup", "norm RMSE")
	fullXGB := reportFor(full, "xgb")
	g1XGB := reportFor(g1, "xgb")
	tb.Row("Group 1 + Group 2 (Table II)", tabulate.F(fullXGB.EstMean, 2), tabulate.F(fullXGB.NormRMSE, 2))
	tb.Row("Group 1 only (serial terms)", tabulate.F(g1XGB.EstMean, 2), tabulate.F(g1XGB.NormRMSE, 2))
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "expected: parallel (per-thread) features carry the thread-count signal;")
	fmt.Fprintln(w, "dropping them degrades both accuracy and speedup.")
	return nil
}

// AblationTarget compares the paper's runtime-regression-plus-argmin scheme
// against directly regressing the optimal thread count.
func AblationTarget(w io.Writer, lab *Lab) error {
	full, holdout, refThreads, err := lab.evaluation("Gadi", 500, true)
	if err != nil {
		return err
	}

	// Direct scheme: one row per shape, target = measured-best thread count.
	direct, err := core.TrainDirectThreadModel(full.OpData[ops.GEMM], lab.Scale.Seed, lab.Scale.QuickModels)
	if err != nil {
		return err
	}

	var runtimeSp, directSp []float64
	for _, st := range holdout {
		ref, ok := st.TimeAt(refThreads)
		if !ok {
			continue
		}
		if t, ok := st.TimeAt(full.Library.OptimalThreadsOp(ops.GEMM, st.Shape.M, st.Shape.K, st.Shape.N)); ok {
			runtimeSp = append(runtimeSp, ref/t)
		}
		if t, ok := nearestTime(st, direct.Predict(st.Shape.M, st.Shape.K, st.Shape.N)); ok {
			directSp = append(directSp, ref/t)
		}
	}
	fmt.Fprintln(w, "Ablation: prediction target (Gadi, <= 500 MB)")
	tb := tabulate.New("scheme", "mean speedup", "median speedup")
	a, b := stats.Describe(runtimeSp), stats.Describe(directSp)
	tb.Row("runtime regression + argmin (paper)", tabulate.F(a.Mean, 2), tabulate.F(a.Median, 2))
	tb.Row("direct thread-count regression", tabulate.F(b.Mean, 2), tabulate.F(b.Median, 2))
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "the runtime-regression scheme can rank arbitrary candidate sets and is")
	fmt.Fprintln(w, "what §IV-A adopts; direct regression collapses the per-candidate signal.")
	return nil
}

// nearestTime returns the measured time at the candidate closest to want.
func nearestTime(st core.ShapeTimings, want int) (float64, bool) {
	bestDiff := 1 << 30
	var bestSec float64
	found := false
	for _, ct := range st.Times {
		d := ct.Threads - want
		if d < 0 {
			d = -d
		}
		if d < bestDiff {
			bestDiff, bestSec, found = d, ct.Seconds, true
		}
	}
	return bestSec, found
}

// xgbOnly is the Gadi 500 MB install recipe the ablations retrain, with
// XGBoost as its only model family.
func xgbOnly(lab *Lab) (core.TrainConfig, error) {
	cfg, err := lab.Config("Gadi", 500, true)
	if err != nil {
		return cfg, err
	}
	for _, s := range cfg.Models {
		if s.Kind == "xgb" {
			cfg.Models = []core.ModelSpec{s}
			return cfg, nil
		}
	}
	cfg.Models = cfg.Models[:1]
	return cfg, nil
}

// reportFor is the GEMM comparison row of one model kind.
func reportFor(res *core.TrainResult, kind string) core.ModelReport {
	for _, r := range res.OpReports[ops.GEMM] {
		if r.Kind == kind {
			return r
		}
	}
	return core.ModelReport{}
}
