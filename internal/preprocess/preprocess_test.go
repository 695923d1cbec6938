package preprocess

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
)

func TestYeoJohnsonKnownForms(t *testing.T) {
	// λ=1 is identity.
	id := YeoJohnson{Lambda: 1}
	for _, v := range []float64{-3, -0.5, 0, 0.5, 3} {
		if got := id.Transform(v); math.Abs(got-v) > 1e-12 {
			t.Errorf("λ=1 Transform(%v) = %v", v, got)
		}
	}
	// λ=0, y>=0 is log1p.
	lg := YeoJohnson{Lambda: 0}
	if got := lg.Transform(math.E - 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("λ=0 Transform(e-1) = %v, want 1", got)
	}
	// λ=2, y<0 is -log1p(-y).
	l2 := YeoJohnson{Lambda: 2}
	if got := l2.Transform(-(math.E - 1)); math.Abs(got+1) > 1e-12 {
		t.Errorf("λ=2 Transform(-(e-1)) = %v, want -1", got)
	}
}

func TestYeoJohnsonInverseProperty(t *testing.T) {
	f := func(lRaw, vRaw int16) bool {
		lambda := float64(lRaw%30) / 10 // [-2.9, 2.9], the practical MLE range
		v := float64(vRaw) / 200        // [-163, 163]
		yj := YeoJohnson{Lambda: lambda}
		z := yj.Transform(v)
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true // extreme λ/value combos can overflow; not round-trippable
		}
		back := yj.Inverse(z)
		// Tolerance scales with the conditioning of the inverse power; large
		// |λ| with large |v| loses digits to cancellation by construction.
		return math.Abs(back-v) <= 1e-5*(1+math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestYeoJohnsonMonotoneProperty(t *testing.T) {
	f := func(lRaw int8, aRaw, bRaw int16) bool {
		yj := YeoJohnson{Lambda: float64(lRaw%50) / 10}
		a, b := float64(aRaw)/10, float64(bRaw)/10
		if a > b {
			a, b = b, a
		}
		ta, tb := yj.Transform(a), yj.Transform(b)
		if math.IsInf(ta, 0) || math.IsInf(tb, 0) || math.IsNaN(ta) || math.IsNaN(tb) {
			return true
		}
		return ta <= tb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFitYeoJohnsonReducesSkew(t *testing.T) {
	// Heavily right-skewed data (log-normal): the fitted transform must cut
	// skewness dramatically — this is the Fig 4 behaviour.
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 600)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*1.2 + 2)
	}
	before := stats.Skewness(xs)
	yj, err := FitYeoJohnson(xs)
	if err != nil {
		t.Fatal(err)
	}
	trans := make([]float64, len(xs))
	for i, v := range xs {
		trans[i] = yj.Transform(v)
	}
	after := stats.Skewness(trans)
	if math.Abs(after) > math.Abs(before)/4 {
		t.Errorf("skewness %v -> %v: transform did not normalise", before, after)
	}
}

func TestFitYeoJohnsonEdgeCases(t *testing.T) {
	if _, err := FitYeoJohnson(nil); err == nil {
		t.Error("empty fit should error")
	}
	yj, err := FitYeoJohnson([]float64{5, 5, 5})
	if err != nil {
		t.Fatalf("constant fit: %v", err)
	}
	if yj.Lambda != 1 {
		t.Errorf("constant data λ = %v, want identity 1", yj.Lambda)
	}
	// Data with negatives must still fit (Box-Cox would fail here).
	if _, err := FitYeoJohnson([]float64{-3, -1, 0, 2, 8, 100}); err != nil {
		t.Errorf("negative values: %v", err)
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 || s.Mean[1] != 10 {
		t.Errorf("means = %v", s.Mean)
	}
	if s.Std[1] != 1 {
		t.Errorf("constant column Std = %v, want fallback 1", s.Std[1])
	}
	row := s.Transform([]float64{3, 10})
	if row[0] != 0 || row[1] != 0 {
		t.Errorf("transform of mean row = %v, want zeros", row)
	}
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty scaler fit should error")
	}
}

func TestLOFFlagsOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	for i := 0; i < 60; i++ {
		X = append(X, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	X = append(X, []float64{25, 25}) // blatant outlier
	scores, err := LOFScores(X, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := scores[len(scores)-1]
	if out < 2 {
		t.Errorf("outlier LOF = %v, want >> 1", out)
	}
	// Inliers should hover near 1.
	inlierHigh := 0
	for _, s := range scores[:60] {
		if s > 2 {
			inlierHigh++
		}
	}
	if inlierHigh > 3 {
		t.Errorf("%d/60 inliers scored > 2", inlierHigh)
	}
	keep, err := FilterLOF(X, 10, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range keep {
		if i == 60 {
			t.Error("FilterLOF kept the outlier")
		}
	}
}

func TestLOFEdgeCases(t *testing.T) {
	if _, err := LOFScores(nil, 3); err == nil {
		t.Error("empty LOF should error")
	}
	if _, err := LOFScores([][]float64{{1}}, 0); err == nil {
		t.Error("k=0 should error")
	}
	// Single point, k clamped: score 1.
	s, err := LOFScores([][]float64{{1, 2}}, 5)
	if err != nil || len(s) != 1 || s[0] != 1 {
		t.Errorf("single point: %v %v", s, err)
	}
	// Duplicate points (zero distances) must not NaN.
	dup := [][]float64{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	scores, err := LOFScores(dup, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scores {
		if math.IsNaN(v) {
			t.Errorf("score[%d] is NaN", i)
		}
	}
}

func TestPruneCorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	a := make([]float64, n)
	b := make([]float64, n) // b ≈ 2a: should collapse to one of {a, b}
	c := make([]float64, n) // independent
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b[i] = 2*a[i] + 0.01*rng.NormFloat64()
		c[i] = rng.NormFloat64()
	}
	keep := pruneCorrelated([][]float64{a, b, c}, 0.8)
	if len(keep) != 2 {
		t.Fatalf("kept %v, want 2 columns", keep)
	}
	hasC := false
	for _, k := range keep {
		if k == 2 {
			hasC = true
		}
	}
	if !hasC {
		t.Error("independent column was dropped")
	}
}

func buildGEMMLike(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New([]string{"m", "k", "mk", "noise"})
	for i := 0; i < n; i++ {
		m := math.Exp(rng.Float64() * 8)
		k := math.Exp(rng.Float64() * 8)
		d.Append([]float64{m, k, m * k, rng.NormFloat64()}, m*k*1e-9+1e-7)
	}
	return d
}

func TestPipelineFitTransformConsistency(t *testing.T) {
	d := buildGEMMLike(300, 4)
	p, train, err := Fit(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() == 0 || train.Len() > d.Len() {
		t.Fatalf("train rows = %d", train.Len())
	}
	if len(train.Cols) > len(d.Cols) {
		t.Fatalf("columns grew: %v", train.Cols)
	}
	// Transform of a raw row must be finite and have the training width.
	row := p.Transform(d.X[0])
	if len(row) != len(train.Cols) {
		t.Fatalf("Transform width %d, want %d", len(row), len(train.Cols))
	}
	for _, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Transform produced %v", v)
		}
	}
	// A row assembled column by column is the transformed row.
	for i, j := range p.Keep {
		if got := p.TransformColumn(j, d.X[0][j]); got != row[i] {
			t.Fatalf("TransformColumn(%d) = %v, Transform gives %v", j, got, row[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.TransformColumn(p.Keep[0], d.X[0][p.Keep[0]]) }); n != 0 {
		t.Errorf("TransformColumn allocates %.1f/op, want 0", n)
	}
	// Log target: train targets are ln(y); Untransform inverts.
	if !p.LogTarget {
		t.Error("DefaultOptions should enable LogTarget")
	}
	if got := p.UntransformTarget(train.Y[0]); got <= 0 {
		t.Errorf("UntransformTarget = %v, want positive seconds", got)
	}
}

func TestPipelineDropsCorrelatedGEMMFeature(t *testing.T) {
	// In GEMM-like data, m*k correlates with m and k after YJ; with the 0.8
	// threshold at least one column should usually be pruned. Use perfectly
	// duplicated columns to make it deterministic.
	d := dataset.New([]string{"a", "a2"})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		v := rng.ExpFloat64() + 0.1
		d.Append([]float64{v, v}, v)
	}
	opts := DefaultOptions()
	opts.LOFNeighbours = 0
	p, train, err := Fit(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(train.Cols) != 1 {
		t.Errorf("duplicate columns not pruned: %v", train.Cols)
	}
	if len(p.OutputCols()) != 1 {
		t.Errorf("OutputCols = %v", p.OutputCols())
	}
}

func TestPipelineRejectsNonPositiveTargetWithLog(t *testing.T) {
	d := dataset.New([]string{"x"})
	d.Append([]float64{1}, 0) // zero runtime is invalid under log
	d.Append([]float64{2}, 1)
	opts := DefaultOptions()
	opts.LOFNeighbours = 0
	if _, _, err := Fit(d, opts); err == nil {
		t.Error("zero target with LogTarget should error")
	}
}

func TestPipelineSerialisationRoundTrip(t *testing.T) {
	d := buildGEMMLike(200, 6)
	p, _, err := Fit(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := UnmarshalPipeline(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		a := p.Transform(d.X[i])
		b := q.Transform(d.X[i])
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d diverged after round trip", i)
			}
		}
	}
}

func TestUnmarshalPipelineRejectsCorrupt(t *testing.T) {
	if _, err := UnmarshalPipeline([]byte("{")); err == nil {
		t.Error("bad JSON should error")
	}
	if _, err := UnmarshalPipeline([]byte(`{"input_cols":["a"],"yeo_johnson":[],"scaler":{"mean":[],"std":[]},"keep":[]}`)); err == nil {
		t.Error("inconsistent shapes should error")
	}
	if _, err := UnmarshalPipeline([]byte(`{"input_cols":["a"],"yeo_johnson":[{"lambda":1}],"scaler":{"mean":[0],"std":[1]},"keep":[7]}`)); err == nil {
		t.Error("out-of-range keep index should error")
	}
	if _, err := UnmarshalPipeline([]byte(`{"input_cols":["a"],"yeo_johnson":[{"lambda":1}],"scaler":{"mean":[0],"std":[]},"keep":[0]}`)); err == nil {
		t.Error("short scaler.std should error")
	}
	if _, err := UnmarshalPipeline([]byte(`{"input_cols":["a"],"yeo_johnson":[{"lambda":1}],"scaler":{"mean":[0],"std":[0]},"keep":[0]}`)); err == nil {
		t.Error("zero scaler.std on a kept column should error")
	}
}

// TestPipelineValidateNonFinite covers the values JSON cannot carry but an
// in-process pipeline can: a NaN or infinite parameter on a kept column
// would turn every score into NaN, so Validate names it.
func TestPipelineValidateNonFinite(t *testing.T) {
	mk := func() *Pipeline {
		return &Pipeline{
			InputCols: []string{"a", "b"},
			YJ:        []YeoJohnson{{Lambda: 1}, {Lambda: 0.5}},
			Scaler:    StandardScaler{Mean: []float64{0, 1}, Std: []float64{1, 2}},
			Keep:      []int{1},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("valid pipeline rejected: %v", err)
	}
	cases := map[string]func(*Pipeline){
		"scaler.std":  func(p *Pipeline) { p.Scaler.Std[1] = math.NaN() },
		"scaler.mean": func(p *Pipeline) { p.Scaler.Mean[1] = math.Inf(1) },
		"lambda":      func(p *Pipeline) { p.YJ[1].Lambda = math.NaN() },
	}
	for field, corrupt := range cases {
		p := mk()
		corrupt(p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("corrupt %s: err = %v, want an error naming the field", field, err)
		}
	}
	// A dropped column's parameters are never read, so they are not checked.
	p := mk()
	p.Scaler.Std[0] = 0
	if err := p.Validate(); err != nil {
		t.Errorf("zero std on a pruned column rejected: %v", err)
	}
}

func TestPipelineNoLOFNoCorr(t *testing.T) {
	d := buildGEMMLike(100, 7)
	p, train, err := Fit(d, Options{LogTarget: false})
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != d.Len() {
		t.Errorf("rows changed without LOF: %d vs %d", train.Len(), d.Len())
	}
	if len(train.Cols) != len(d.Cols) {
		t.Errorf("columns changed without pruning: %v", train.Cols)
	}
	if got := p.UntransformTarget(2.5); got != 2.5 {
		t.Errorf("identity target transform = %v", got)
	}
}
