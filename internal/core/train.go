package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/ml/tune"
	"repro/internal/ops"
	"repro/internal/preprocess"
	"repro/internal/tabulate"
)

// TrainConfig drives the full installation workflow.
type TrainConfig struct {
	Gather GatherConfig

	// Platform is a display name recorded in the artefact.
	Platform string
	// ReferenceThreads is the baseline thread count for speedup computation
	// (the paper uses the physical core count). It must be a member of
	// Gather.Candidates.
	ReferenceThreads int
	// TestFrac is the held-out fraction of shapes (paper: 0.30).
	TestFrac float64
	// TuneFolds is k for cross validation during hyper-parameter tuning.
	TuneFolds int
	Preproc   preprocess.Options
	Models    []ModelSpec
	Seed      int64
	// Ops lists the operations to gather timings for and train per-op
	// models on (§VII future work: ML thread selection beyond GEMM). Empty
	// means GEMM only. GEMM is always trained — it is the primary model and
	// the fallback for operations without one of their own.
	Ops []ops.Op
}

// DefaultTrainConfig assembles the paper's settings around a gather config.
func DefaultTrainConfig(g GatherConfig, platform string, referenceThreads int) TrainConfig {
	return TrainConfig{
		Gather:           g,
		Platform:         platform,
		ReferenceThreads: referenceThreads,
		TestFrac:         0.30,
		TuneFolds:        3,
		Preproc:          preprocess.DefaultOptions(),
		Models:           DefaultModels(g.Seed, false),
		Seed:             g.Seed,
	}
}

// ModelReport is one row of Table III/IV.
type ModelReport struct {
	// Op is the wire name of the operation the row was trained for
	// ("gemm", "syrk", ...).
	Op         string
	Name       string
	Kind       string
	GridChoice string
	RMSE       float64 // test-set RMSE in the (possibly log) target space
	NormRMSE   float64 // divided by the worst model's RMSE
	IdealMean  float64 // mean speedup ignoring evaluation latency
	IdealAgg   float64 // aggregate (total-time ratio) speedup, no latency
	EvalMicros float64 // measured per-selection model evaluation time
	EstMean    float64 // mean speedup including evaluation latency
	EstAgg     float64 // aggregate speedup including evaluation latency
}

// TrainResult is the outcome of the installation workflow.
type TrainResult struct {
	Library *Library
	// Reports is the primary (GEMM) model comparison.
	Reports []ModelReport
	// OpReports holds the comparison per trained operation (GEMM included).
	OpReports map[ops.Op][]ModelReport
	// Data and TestIdx expose the GEMM sweep and its held-out shape indices
	// so experiments can reuse them without re-timing; OpData holds every
	// op's sweep.
	Data    []ShapeTimings
	TestIdx []int
	OpData  map[ops.Op][]ShapeTimings
}

// trainOps normalises cfg.Ops: GEMM first and exactly once, order of the
// rest preserved.
func trainOps(cfg TrainConfig) []ops.Op {
	out := []ops.Op{ops.GEMM}
	for _, op := range cfg.Ops {
		dup := false
		for _, have := range out {
			if op == have {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, op)
		}
	}
	return out
}

// Train executes the installation workflow of Fig 2 end to end — once per
// requested operation — and returns the deployable per-op Library bundle
// plus the model-comparison reports.
//
// It runs in three phases. Every op is gathered in turn, so a real timer
// never shares the machine with other work. Then every op is
// preprocessed and every (op, family) pair tuned and fitted on a pool of
// GOMAXPROCS goroutines, each result in its own slot. Last, every model's
// evaluation latency is measured and the selection made in op and family
// order on an otherwise idle process. The fits depend only on their inputs
// and seeds, so the models are those of a serial install.
func Train(cfg TrainConfig) (*TrainResult, error) {
	opList := trainOps(cfg)
	datas := make([][]ShapeTimings, len(opList))
	for i, op := range opList {
		g := cfg.Gather
		g.Op = op
		data, err := Gather(g)
		if err != nil {
			return nil, fmt.Errorf("core: gather %v: %w", op, err)
		}
		datas[i] = data
	}

	sweeps, failed, err := fitSweeps(cfg, opList, datas, nil)
	if err != nil {
		return nil, fmt.Errorf("core: train %v: %w", opList[failed], err)
	}
	res := &TrainResult{
		OpReports: make(map[ops.Op][]ModelReport),
		OpData:    make(map[ops.Op][]ShapeTimings),
	}
	lib := &Library{Platform: cfg.Platform, Candidates: candidatesOf(datas[0][0])}
	for _, sw := range sweeps {
		model, reports, err := sw.selectModel(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: train %v: %w", sw.op, err)
		}
		if err := lib.SetModel(sw.op, model); err != nil {
			return nil, err
		}
		res.OpReports[sw.op] = reports
		res.OpData[sw.op] = sw.data
		if sw.op == ops.GEMM {
			res.Reports = reports
			res.Data = sw.data
			res.TestIdx = sw.testIdx
		}
	}
	res.Library = lib
	return res, nil
}

// TrainOnData runs the workflow on a pre-gathered GEMM sweep (used by
// experiments that share one gather across several studies).
func TrainOnData(cfg TrainConfig, data []ShapeTimings) (*TrainResult, error) {
	return TrainOnDataWithColumns(cfg, data, nil)
}

// TrainOnDataWithColumns is TrainOnData restricted to a subset of the
// Table II feature columns (nil means all). Used by the feature-set
// ablation.
func TrainOnDataWithColumns(cfg TrainConfig, data []ShapeTimings, cols []string) (*TrainResult, error) {
	sweeps, _, err := fitSweeps(cfg, []ops.Op{ops.GEMM}, [][]ShapeTimings{data}, cols)
	if err != nil {
		return nil, err
	}
	sw := sweeps[0]
	model, reports, err := sw.selectModel(cfg)
	if err != nil {
		return nil, err
	}
	lib := &Library{Platform: cfg.Platform, Candidates: candidatesOf(data[0])}
	if err := lib.SetModel(ops.GEMM, model); err != nil {
		return nil, err
	}
	return &TrainResult{
		Library:   lib,
		Reports:   reports,
		OpReports: map[ops.Op][]ModelReport{ops.GEMM: reports},
		Data:      data,
		TestIdx:   sw.testIdx,
		OpData:    map[ops.Op][]ShapeTimings{ops.GEMM: data},
	}, nil
}

// sweep is one op's gathered data on its way through the install: the
// shape-level split, the fitted preprocessing pipeline, the transformed
// training rows and held-out rows, and one fitted model per family.
type sweep struct {
	op       ops.Op
	data     []ShapeTimings
	cols     []string
	testIdx  []int
	testData []ShapeTimings
	pipe     *preprocess.Pipeline
	trainX   [][]float64
	trainY   []float64
	testX    [][]float64
	testY    []float64
	fits     []fitted // one per cfg.Models entry
}

// fitted is one family's tuned and fitted model and its held-out RMSE.
type fitted struct {
	grid  string
	model ml.Regressor
	rmse  float64
}

// fitSweeps preprocesses each op's sweep and tunes and fits every family on
// it, on a pool of GOMAXPROCS goroutines: one task per op, then one per
// (op, family), each fit waiting only for its own op's preprocessing. On
// failure it returns the error a serial install would meet first, with the
// index of its op.
func fitSweeps(cfg TrainConfig, opList []ops.Op, datas [][]ShapeTimings, cols []string) ([]*sweep, int, error) {
	if cfg.TuneFolds < 2 {
		cfg.TuneFolds = 3
	}
	nops, nf := len(opList), len(cfg.Models)
	sweeps := make([]*sweep, nops)
	prepared := make([]chan struct{}, nops)
	for i := range prepared {
		prepared[i] = make(chan struct{})
	}
	// errs[i*(nf+1)] is op i's preprocessing error and errs[i*(nf+1)+1+j]
	// its family j's: the order a serial install meets them in.
	errs := make([]error, nops*(nf+1))
	forEach(len(errs), func(t int) {
		if t < nops {
			sweeps[t], errs[t*(nf+1)] = prepareSweep(cfg, opList[t], datas[t], cols)
			close(prepared[t])
			return
		}
		// forEach hands out indices in order, so op i's preprocessing is
		// running or done by now.
		i, j := (t-nops)/nf, (t-nops)%nf
		<-prepared[i]
		if sw := sweeps[i]; sw != nil {
			sw.fits[j], errs[i*(nf+1)+1+j] = sw.fitFamily(cfg, cfg.Models[j])
		}
	})
	for t, err := range errs {
		if err != nil {
			return nil, t / (nf + 1), err
		}
	}
	return sweeps, 0, nil
}

// forEach calls fn(0), …, fn(n-1) on min(n, GOMAXPROCS) goroutines, handing
// out indices in order, and returns once every call has.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// prepareSweep validates the configuration against one op's sweep, splits it
// by shape, fits the preprocessing pipeline on the training part and
// transforms the held-out rows.
func prepareSweep(cfg TrainConfig, op ops.Op, data []ShapeTimings, cols []string) (*sweep, error) {
	if len(data) < 10 {
		return nil, fmt.Errorf("core: %d shapes is too few to train on", len(data))
	}
	if cfg.TestFrac <= 0 || cfg.TestFrac >= 1 {
		return nil, fmt.Errorf("core: TestFrac %v outside (0,1)", cfg.TestFrac)
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("core: no model specs")
	}
	if cfg.Gather.Iters < 1 {
		return nil, fmt.Errorf("core: Gather.Iters %d < 1", cfg.Gather.Iters)
	}
	if _, ok := data[0].TimeAt(cfg.ReferenceThreads); !ok {
		return nil, fmt.Errorf("core: reference thread count %d not among timed candidates", cfg.ReferenceThreads)
	}

	// --- Shape-level stratified split -------------------------------------
	// Stratify by the reference-thread runtime so train and test cover the
	// same size spectrum (§IV-C).
	testIdx := stratifiedShapeSplit(data, cfg.ReferenceThreads, cfg.TestFrac, cfg.Seed)
	inTest := make([]bool, len(data))
	for _, i := range testIdx {
		inTest[i] = true
	}
	var trainData, testData []ShapeTimings
	for i, st := range data {
		if inTest[i] {
			testData = append(testData, st)
		} else {
			trainData = append(trainData, st)
		}
	}

	// --- Preprocess --------------------------------------------------------
	trainSet := features.Build(Records(trainData))
	if cols != nil {
		var err error
		if trainSet, err = trainSet.Select(cols); err != nil {
			return nil, err
		}
	}
	pipe, transformed, err := preprocess.Fit(trainSet, cfg.Preproc)
	if err != nil {
		return nil, err
	}

	// Transformed test rows for RMSE.
	testRecs := Records(testData)
	testSet := features.Build(testRecs)
	if cols != nil {
		if testSet, err = testSet.Select(cols); err != nil {
			return nil, err
		}
	}
	testX := make([][]float64, len(testRecs))
	testY := make([]float64, len(testRecs))
	for i := range testRecs {
		testX[i] = pipe.Transform(testSet.X[i])
		y := testRecs[i].Seconds
		if cfg.Preproc.LogTarget {
			y = logOrErr(y)
		}
		testY[i] = y
	}
	return &sweep{
		op: op, data: data, cols: cols, testIdx: testIdx, testData: testData,
		pipe: pipe, trainX: transformed.X, trainY: transformed.Y,
		testX: testX, testY: testY,
		fits: make([]fitted, len(cfg.Models)),
	}, nil
}

// fitFamily tunes one family's grid by cross validation, fits the winner on
// the whole training part and scores it on the held-out rows. It only reads
// the sweep, so every family of every op can fit at once.
func (sw *sweep) fitFamily(cfg TrainConfig, spec ModelSpec) (fitted, error) {
	grid, err := tune.GridSearch(spec.Grid, sw.trainX, sw.trainY, cfg.TuneFolds, cfg.Seed)
	if err != nil {
		return fitted{}, fmt.Errorf("core: tuning %s: %w", spec.Name, err)
	}
	model := grid.Best.Factory()
	if err := model.Fit(sw.trainX, sw.trainY); err != nil {
		return fitted{}, fmt.Errorf("core: fitting %s: %w", spec.Name, err)
	}
	rmse := ml.RMSE(ml.PredictBatch(model, sw.testX), sw.testY)
	return fitted{grid: grid.Best.Label, model: model, rmse: rmse}, nil
}

// evalLatency is measureEvalLatency; a variable so that a test can see when
// the selection phase times the models.
var evalLatency = measureEvalLatency

// selectModel measures each fitted family's evaluation latency and
// speedups in family order, and returns the selected OpModel with the full
// model comparison. It must run with no fit in flight: t_eval decides the
// selection.
func (sw *sweep) selectModel(cfg TrainConfig) (*OpModel, []ModelReport, error) {
	candidates := candidatesOf(sw.data[0])
	reports := make([]ModelReport, len(cfg.Models))
	for i, spec := range cfg.Models {
		f := sw.fits[i]
		// A throwaway single-model bundle, ranked through one scratch — the
		// path (and the cost) the serving engine has.
		probe := &Library{Platform: cfg.Platform, Candidates: candidates}
		if err := probe.SetModel(sw.op, &OpModel{
			Kind: spec.Kind, Model: f.model, Pipeline: sw.pipe, Columns: sw.cols,
		}); err != nil {
			return nil, nil, err
		}
		scratch := probe.NewScratch()
		evalSec := evalLatency(probe, sw.op, sw.testData, scratch)
		idealMean, idealAgg := speedups(probe, sw.op, sw.testData, cfg.ReferenceThreads, 0, scratch)
		// The paper's timing protocol (§V-B.3) runs each shape in a
		// 10-iteration loop with the §III-C prediction cache active, so one
		// model evaluation amortises over the loop. Charge the same way.
		estMean, estAgg := speedups(probe, sw.op, sw.testData, cfg.ReferenceThreads, evalSec/float64(cfg.Gather.Iters), scratch)
		reports[i] = ModelReport{
			Op:   sw.op.String(),
			Name: spec.Name, Kind: spec.Kind, GridChoice: f.grid,
			RMSE:      f.rmse,
			IdealMean: idealMean, IdealAgg: idealAgg,
			EvalMicros: evalSec * 1e6,
			EstMean:    estMean, EstAgg: estAgg,
		}
	}

	// Normalised RMSE: worst model = 1.00 (the Tables III/IV convention).
	worst := 0.0
	for _, r := range reports {
		if r.RMSE > worst {
			worst = r.RMSE
		}
	}
	bestIdx := 0
	for i := range reports {
		if worst > 0 {
			reports[i].NormRMSE = reports[i].RMSE / worst
		}
		if reports[i].EstMean > reports[bestIdx].EstMean {
			bestIdx = i
		}
	}

	best := reports[bestIdx]
	return &OpModel{
		Kind:        best.Kind,
		Model:       sw.fits[bestIdx].model,
		Pipeline:    sw.pipe,
		Columns:     sw.cols,
		EvalSeconds: best.EvalMicros / 1e6,
	}, reports, nil
}

// speedups evaluates the model's thread choices on held-out shapes against
// the reference thread count, returning mean and aggregate speedups. evalSec
// is added to the ADSALA time per call (0 for the "ideal" columns).
func speedups(lib *Library, op ops.Op, test []ShapeTimings, refThreads int, evalSec float64, s *Scratch) (mean, agg float64) {
	var sumRatio, sumRef, sumADSALA float64
	n := 0
	for _, st := range test {
		ref, ok := st.TimeAt(refThreads)
		if !ok {
			continue
		}
		choice := lib.Candidates[lib.RankOpInto(op, st.Shape.M, st.Shape.K, st.Shape.N, s, nil)]
		chosen, ok := st.TimeAt(choice)
		if !ok {
			continue
		}
		adsala := chosen + evalSec
		sumRatio += ref / adsala
		sumRef += ref
		sumADSALA += adsala
		n++
	}
	if n == 0 || sumADSALA == 0 {
		return 0, 0
	}
	return sumRatio / float64(n), sumRef / sumADSALA
}

// measureEvalLatency times the full thread-selection (pipeline transform +
// model evaluation across every candidate) on this host, averaged over a
// sample of shapes — the t_eval of §IV-D. It ranks through a reused Scratch,
// as the serving engine does, so the latency that decides model selection is
// the one a cache miss pays and not that plus a per-call allocation; and it
// keeps the fastest of several passes, because a pass is a few hundred
// microseconds and one preemption inside a mean is enough to flip the
// selection between two models whose estimated speedups are close.
func measureEvalLatency(lib *Library, op ops.Op, test []ShapeTimings, s *Scratch) float64 {
	probe := test
	if len(probe) > 32 {
		probe = probe[:32]
	}
	if len(probe) == 0 {
		return 0
	}
	pass := func() float64 {
		start := time.Now()
		for _, st := range probe {
			lib.RankOpInto(op, st.Shape.M, st.Shape.K, st.Shape.N, s, nil)
		}
		return time.Since(start).Seconds()
	}
	pass() // warms code paths; not timed
	best := pass()
	for r := 1; r < 9; r++ {
		best = math.Min(best, pass())
	}
	return best / float64(len(probe))
}

// stratifiedShapeSplit picks testFrac of shape indices, stratified by the
// reference-thread runtime.
func stratifiedShapeSplit(data []ShapeTimings, refThreads int, testFrac float64, seed int64) []int {
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	key := func(i int) float64 {
		if t, ok := data[i].TimeAt(refThreads); ok {
			return t
		}
		return data[i].BestMeasured().Seconds
	}
	slices.SortFunc(order, func(a, b int) int { return compareFloat(key(a), key(b)) })
	rng := rand.New(rand.NewSource(seed))
	stratum := int(1/testFrac + 0.5)
	if stratum < 2 {
		stratum = 2
	}
	var test []int
	for lo := 0; lo < len(order); lo += stratum {
		hi := lo + stratum
		if hi > len(order) {
			hi = len(order)
		}
		if hi-lo > 1 {
			test = append(test, order[lo+rng.Intn(hi-lo)])
		}
	}
	return test
}

func candidatesOf(st ShapeTimings) []int {
	out := make([]int, len(st.Times))
	for i, ct := range st.Times {
		out[i] = ct.Threads
	}
	return sortedCopy(out)
}

func logOrErr(y float64) float64 {
	if y <= 0 {
		return -30 // degenerate but keeps evaluation going; gather never emits <= 0
	}
	return math.Log(y)
}

// RenderReport formats the model comparison as an aligned text table in the
// layout of Tables III/IV.
func RenderReport(reports []ModelReport) string {
	tb := tabulate.New("Model", "NormRMSE", "IdealMean", "IdealAgg", "Eval(us)", "EstMean", "EstAgg")
	for _, r := range reports {
		tb.Row(r.Name,
			tabulate.F(r.NormRMSE, 2), tabulate.F(r.IdealMean, 2), tabulate.F(r.IdealAgg, 2),
			tabulate.F(r.EvalMicros, 2), tabulate.F(r.EstMean, 2), tabulate.F(r.EstAgg, 2))
	}
	return tb.String()
}

// compareFloat is x < y as a three-way comparison: negative exactly when
// x < y, positive exactly when y < x, zero otherwise, NaN included
// (cmp.Compare orders NaN first). slices.SortFunc consults only cmp < 0 and
// shares sort.Slice's pdqsort, so it leaves the permutation sort.Slice
// leaves with less = x < y.
func compareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case y < x:
		return 1
	}
	return 0
}
