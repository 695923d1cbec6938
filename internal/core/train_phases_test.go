package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/ml/tune"
	"repro/internal/ops"
	"repro/internal/simtime"
)

// phaseLog watches one Train: its timer and its models' Fit calls report
// in, and so does the selection phase through evalLatency.
type phaseLog struct {
	t            *testing.T
	perOp        int64        // Measure calls one op's sweep makes
	timings      int64        // Measure calls the sweeps of every op make
	measuring    atomic.Int32 // Measure calls in flight
	measured     atomic.Int64 // Measure calls returned
	fitting      atomic.Int32 // Fit calls in flight
	mu           sync.Mutex
	lastGather   time.Time
	firstFit     time.Time
	fits, evals  int
	maxFitting   int32
	fitsInFlight []int32 // fitting at each evalLatency call
}

// phaseTimer is the sweep's timer, reporting every measurement to the log.
type phaseTimer struct {
	simtime.Timer
	log *phaseLog
}

func (pt phaseTimer) Measure(op ops.Op, m, k, n, threads, iters int) float64 {
	l := pt.log
	if c := l.measuring.Add(1); c != 1 {
		l.t.Errorf("%d timings in flight", c)
	}
	if c := l.fitting.Load(); c != 0 {
		l.t.Errorf("gather %v timed with %d fits in flight", op, c)
	}
	if l.measured.Load()%l.perOp == 0 { // the first timing of an op's sweep
		time.Sleep(5 * time.Millisecond) // widen the window an overlap would need
	}
	secs := pt.Timer.Measure(op, m, k, n, threads, iters)
	l.mu.Lock()
	l.lastGather = time.Now()
	l.mu.Unlock()
	l.measured.Add(1)
	l.measuring.Add(-1)
	return secs
}

// phaseModel is a real model whose Fit reports to the log.
type phaseModel struct {
	ml.Regressor
	log *phaseLog
}

func (m *phaseModel) Fit(X [][]float64, y []float64) error {
	l := m.log
	start := time.Now()
	n := l.fitting.Add(1)
	defer l.fitting.Add(-1)
	if g := l.measured.Load(); g != l.timings {
		l.t.Errorf("a fit started after %d of %d timings", g, l.timings)
	}
	l.mu.Lock()
	if l.fits == 0 || start.Before(l.firstFit) {
		l.firstFit = start
	}
	l.fits++
	l.maxFitting = max(l.maxFitting, n)
	l.mu.Unlock()
	time.Sleep(2 * time.Millisecond) // so fits on different goroutines overlap
	return m.Regressor.Fit(X, y)
}

// TestTrainPhases pins the install's three phases: timings run one at a
// time and all return before the first fit starts; fits run side by side;
// and no fit is in flight while the selection phase times a model.
func TestTrainPhases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultTrainConfig(quickGather(30), "Gadi", 48)
	cfg.Ops = []ops.Op{ops.SYRK}
	g := cfg.Gather
	perOp := int64(g.NumShapes * len(g.Candidates))
	log := &phaseLog{t: t, perOp: perOp, timings: 2 * perOp} // GEMM and SYRK
	cfg.Gather.Timer = phaseTimer{g.Timer, log}
	defer func(f func(*Library, ops.Op, []ShapeTimings, *Scratch) float64) { evalLatency = f }(evalLatency)
	inner := evalLatency
	evalLatency = func(lib *Library, op ops.Op, test []ShapeTimings, s *Scratch) float64 {
		log.mu.Lock()
		log.evals++
		log.fitsInFlight = append(log.fitsInFlight, log.fitting.Load())
		log.mu.Unlock()
		return inner(lib, op, test, s)
	}

	cfg.Models = nil
	for _, spec := range DefaultModels(1, true)[:4] { // linear, elasticnet, bayesridge, tree
		for i, c := range spec.Grid {
			factory := c.Factory
			spec.Grid = slices.Clone(spec.Grid)
			spec.Grid[i].Factory = func() ml.Regressor { return &phaseModel{factory(), log} }
		}
		cfg.Models = append(cfg.Models, spec)
	}
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}

	if log.measured.Load() != log.timings {
		t.Fatalf("%d timings, want %d", log.measured.Load(), log.timings)
	}
	if log.fits == 0 || !log.lastGather.Before(log.firstFit) {
		t.Errorf("last timing returned at %v, first fit started at %v (%d fits)", log.lastGather, log.firstFit, log.fits)
	}
	if want := 2 * len(cfg.Models); log.evals != want {
		t.Errorf("%d evaluation timings, want %d", log.evals, want)
	}
	for i, n := range log.fitsInFlight {
		if n != 0 {
			t.Errorf("evaluation timing %d ran beside %d fits", i, n)
		}
	}
	if log.maxFitting < 2 {
		t.Errorf("at most %d fit in flight at GOMAXPROCS 4, want the families fitted side by side", log.maxFitting)
	}
}

// fitCounter is a real model that counts its Fit calls.
type fitCounter struct {
	ml.Regressor
	fits *int
}

func (m fitCounter) Fit(X [][]float64, y []float64) error {
	*m.fits++
	return m.Regressor.Fit(X, y)
}

// TestFitFamilyFitsWinnerOnce: a one-point grid is fitted once, with no
// cross validation; a two-point grid cross-validates both points over the k
// folds and then fits the winner once more on the whole training part.
func TestFitFamilyFitsWinnerOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 60)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = []float64{rng.Float64(), rng.Float64()}
		y[i] = 2*X[i][0] - X[i][1]
	}
	sw := &sweep{trainX: X[:45], trainY: y[:45], testX: X[45:], testY: y[45:]}
	cfg := TrainConfig{TuneFolds: 3}
	for _, spec := range DefaultModels(1, true) {
		if len(spec.Grid) > 2 {
			spec.Grid = spec.Grid[:2]
		}
		built, fits := make([]int, len(spec.Grid)), make([]int, len(spec.Grid))
		for i, c := range spec.Grid {
			spec.Grid[i].Factory = func() ml.Regressor {
				built[i]++
				return fitCounter{c.Factory(), &fits[i]}
			}
		}
		f, err := sw.fitFamily(cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		win := slices.IndexFunc(spec.Grid, func(c tune.Candidate) bool { return c.Label == f.grid })
		cv := 0
		if len(spec.Grid) > 1 {
			cv = cfg.TuneFolds
		}
		for i := range spec.Grid {
			want := cv
			if i == win {
				want++
			}
			if built[i] != want || fits[i] != want {
				t.Errorf("%s point %d (winner %d): built %d, fitted %d, want %d", spec.Name, i, win, built[i], fits[i], want)
			}
		}
		if win < 0 || f.model.(fitCounter).fits != &fits[win] {
			t.Errorf("%s: fitFamily returned grid %q and another point's model", spec.Name, f.grid)
		}
	}
}

// TestTrainIndependentOfGOMAXPROCS trains one quick two-op install on one
// core and on four. Everything but the measured evaluation latency and the
// estimates charged with it must be bit-identical, and so must the artefact
// (eval_seconds aside) wherever latency did not tip the selection.
func TestTrainIndependentOfGOMAXPROCS(t *testing.T) {
	shapes := 40
	if testing.Short() {
		shapes = 24
	}
	train := func(procs int) *TrainResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := DefaultTrainConfig(quickGather(shapes), "Gadi", 48)
		cfg.Models = DefaultModels(1, true)
		cfg.Ops = []ops.Op{ops.SYRK}
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := train(1), train(4)

	bits := math.Float64bits
	for _, op := range []ops.Op{ops.GEMM, ops.SYRK} {
		a, b := one.OpReports[op], four.OpReports[op]
		if len(a) != len(b) {
			t.Fatalf("%v: %d report rows on one core, %d on four", op, len(a), len(b))
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Op != y.Op || x.Name != y.Name || x.Kind != y.Kind || x.GridChoice != y.GridChoice ||
				bits(x.RMSE) != bits(y.RMSE) || bits(x.NormRMSE) != bits(y.NormRMSE) ||
				bits(x.IdealMean) != bits(y.IdealMean) || bits(x.IdealAgg) != bits(y.IdealAgg) {
				t.Errorf("%v row %d differs:\n one core %+v\nfour cores %+v", op, i, x, y)
			}
		}
	}

	dir := t.TempDir()
	save := func(name string, lib *Library) []byte {
		for _, op := range lib.TrainedOps() {
			lib.ModelFor(op).EvalSeconds = 0
		}
		path := filepath.Join(dir, name)
		if err := lib.Save(path); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	same := true
	for _, op := range []ops.Op{ops.GEMM, ops.SYRK} {
		ka, kb := one.Library.ModelFor(op).Kind, four.Library.ModelFor(op).Kind
		if ka != kb {
			t.Logf("%v: evaluation latency selected %s on one core and %s on four", op, ka, kb)
			same = false
		}
	}
	if a, b := save("one.json", one.Library), save("four.json", four.Library); same && !bytes.Equal(a, b) {
		t.Error("artefacts differ beyond eval_seconds with the same models selected")
	}
}

// TestSortFuncMatchesSortSlice pins what the typed sorts of the training
// path rest on: slices.SortFunc with compareFloat leaves an index slice in
// exactly the permutation sort.Slice gives with less = key[a] < key[b], ties
// and NaN included.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keyed := func(n, levels int, pattern string) []float64 {
		key := make([]float64, n)
		for i := range key {
			switch pattern {
			case "random":
				key[i] = float64(rng.Intn(levels))
			case "ascending":
				key[i] = float64(i * levels / max(n, 1))
			case "descending":
				key[i] = float64((n - i) * levels / max(n, 1))
			case "nan":
				key[i] = float64(rng.Intn(levels))
				if rng.Intn(5) == 0 {
					key[i] = math.NaN()
				}
			}
		}
		return key
	}
	for _, n := range []int{0, 1, 2, 7, 12, 13, 50, 100, 257, 1000, 5000} {
		for _, levels := range []int{1, 2, 3, 10, n + 1} {
			for _, pattern := range []string{"random", "ascending", "descending", "nan"} {
				key := keyed(n, levels, pattern)
				a, b := make([]int, n), make([]int, n)
				for i := range a {
					a[i], b[i] = i, i
				}
				sort.Slice(a, func(i, j int) bool { return key[a[i]] < key[a[j]] })
				slices.SortFunc(b, func(i, j int) int { return compareFloat(key[i], key[j]) })
				if !slices.Equal(a, b) {
					t.Fatalf("n=%d levels=%d %s: permutations differ", n, levels, pattern)
				}
			}
		}
	}
}
