package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/features"
	"repro/internal/ops"
)

var allOps = []ops.Op{ops.GEMM, ops.SYRK, ops.SYR2K}

// trainKind trains all three ops with model selection forced to one kind.
func trainKind(t *testing.T, spec ModelSpec) *Library {
	t.Helper()
	cfg := DefaultTrainConfig(quickGather(40), "Gadi", 48)
	cfg.Models = []ModelSpec{spec}
	cfg.Ops = allOps[1:]
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("train %s: %v", spec.Kind, err)
	}
	return res.Library
}

// withCandidates re-installs the library's models against another candidate
// set — what a different platform's artefact would carry.
func withCandidates(t *testing.T, lib *Library, candidates []int) *Library {
	t.Helper()
	out := &Library{Platform: lib.Platform, Candidates: candidates}
	for _, op := range lib.TrainedOps() {
		if err := out.SetModel(op, lib.ModelFor(op)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// referenceRank is the ranking loop RankOpInto replaced, kept as the oracle:
// per candidate one full feature row, one allocating Pipeline.Transform, one
// Predict; the first minimum of the raw predictions wins. It shares nothing
// with the rank plan — columns are resolved by name here.
func referenceRank(l *Library, op ops.Op, m, k, n int) (best int, seconds []float64) {
	mod := l.ModelFor(op)
	all := features.Columns()
	var bt float64
	for i, cand := range l.Candidates {
		row := features.Row(m, k, n, cand)
		if len(mod.Columns) > 0 {
			restricted := make([]float64, len(mod.Columns))
			for j, name := range mod.Columns {
				restricted[j] = row[slices.Index(all, name)]
			}
			row = restricted
		}
		pred := mod.Model.Predict(mod.Pipeline.Transform(row))
		seconds = append(seconds, mod.Pipeline.UntransformTarget(pred))
		if i == 0 || pred < bt {
			best, bt = i, pred
		}
	}
	return best, seconds
}

// checkBatchedRank compares RankOpInto with the oracle, bit for bit, over
// seeded random shapes of the training domain and of the benchmark's small
// domain, and ties the single-configuration path to the same bits. It
// returns how many rankings had a tied minimum.
func checkBatchedRank(t *testing.T, label string, lib *Library, shapes int, seed int64) (ties int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := lib.NewScratch()
	scores := make([]float64, len(lib.Candidates))
	for _, op := range lib.TrainedOps() {
		for i := 0; i < shapes; i++ {
			lo, span := 1, 4096
			if i%2 == 1 {
				lo, span = 4, 61
			}
			m, k, n := lo+rng.Intn(span), lo+rng.Intn(span), lo+rng.Intn(span)
			wantIdx, want := referenceRank(lib, op, m, k, n)
			if got := lib.RankOpInto(op, m, k, n, s, scores); got != wantIdx {
				t.Fatalf("%s %v %dx%dx%d: argmin index %d, oracle %d (scores %v)", label, op, m, k, n, got, wantIdx, want)
			}
			if got := lib.RankOpInto(op, m, k, n, s, nil); got != wantIdx {
				t.Fatalf("%s %v %dx%dx%d: argmin without scores %d, oracle %d", label, op, m, k, n, got, wantIdx)
			}
			tied := 0
			for c, cand := range lib.Candidates {
				if math.Float64bits(scores[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s %v %dx%dx%d @%d threads: batched score %x, oracle %x",
						label, op, m, k, n, cand, math.Float64bits(scores[c]), math.Float64bits(want[c]))
				}
				if one := lib.PredictOpSecondsInto(op, m, k, n, cand, s); math.Float64bits(one) != math.Float64bits(want[c]) {
					t.Fatalf("%s %v %dx%dx%d @%d threads: PredictOpSecondsInto %x, oracle %x",
						label, op, m, k, n, cand, math.Float64bits(one), math.Float64bits(want[c]))
				}
				if want[c] == want[wantIdx] {
					tied++
				}
			}
			if tied > 1 {
				ties++
			}
		}
	}
	return ties
}

// candidateSets covers one candidate, two, the Gadi set the models were
// trained with (16), a Setonix-sized set (23) and one longer than a 64-bit
// row mask (70), which the batch methods must chunk rather than truncate.
func candidateSets() [][]int {
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out
	}
	return [][]int{{8}, {1, 96}, DefaultCandidates(96), DefaultCandidates(384), seq(70)}
}

// TestBatchedRankMatchesPerCandidate is the bit-identity guarantee of the
// batched ranking pass: for all eight model kinds of Tables III/IV (both
// batch implementers and the per-row loop), all three ops and every
// candidate-set length, scores and the argmin — ties included — are those of
// ranking one candidate at a time.
func TestBatchedRankMatchesPerCandidate(t *testing.T) {
	var lengths []int
	for _, c := range candidateSets() {
		lengths = append(lengths, len(c))
	}
	if !slices.Equal(lengths, []int{1, 2, 16, 23, 70}) {
		t.Fatalf("candidate set lengths %v", lengths)
	}
	for _, spec := range DefaultModels(1, true) {
		t.Run(spec.Kind, func(t *testing.T) {
			trained := trainKind(t, spec)
			ties := 0
			for _, cands := range candidateSets() {
				lib := withCandidates(t, trained, cands)
				ties += checkBatchedRank(t, spec.Kind, lib, 120, int64(len(cands)))
				s := lib.NewScratch()
				if n := testing.AllocsPerRun(50, func() {
					lib.RankOpInto(ops.SYRK, 48, 33, 48, s, nil)
				}); n != 0 {
					t.Errorf("%d candidates: RankOpInto allocates %.1f/op, want 0", len(cands), n)
				}
			}
			t.Logf("%s: %d rankings with a tied minimum", spec.Kind, ties)
		})
	}
}

// TestBatchedRankColumnRestricted runs the same comparison on Group-1-only
// (ablation) libraries, whose pipeline columns map to Table II by name and
// which have no per-candidate transform left at all.
func TestBatchedRankColumnRestricted(t *testing.T) {
	cfg := DefaultTrainConfig(quickGather(40), "Gadi", 48)
	data, err := gather(cfg.Gather)
	if err != nil {
		t.Fatal(err)
	}
	specs := DefaultModels(1, true)
	for _, kind := range []string{"xgb", "lgbm", "linear"} {
		spec, _ := SpecByKind(specs, kind)
		cfg.Models = []ModelSpec{spec}
		res, err := TrainOnDataWithColumns(cfg, data, features.Group1Columns())
		if err != nil {
			t.Fatal(err)
		}
		if p := res.Library.planFor(ops.GEMM); p.mixed {
			t.Fatalf("%s: Group 1 plan has mixed columns: %+v", kind, p.cols)
		}
		for _, cands := range candidateSets() {
			checkBatchedRank(t, kind+"/group1", withCandidates(t, res.Library, cands), 120, 7)
		}
	}
}

// TestRankPlanClasses pins the three-way column split on the full feature
// set: every kept column is classified by the Table II column it reads, the
// thread-only column is transformed at install time for each candidate, and
// the flags handed to the model mark exactly the shape-only columns.
func TestRankPlanClasses(t *testing.T) {
	lib := quickTrain(t, 40).Library
	p := lib.planFor(ops.GEMM)
	pipe := p.mod.Pipeline
	if len(p.cols) != len(pipe.Keep) || len(p.base) != len(lib.Candidates)*len(p.cols) {
		t.Fatalf("plan has %d cols, base %d; pipeline keeps %d, %d candidates",
			len(p.cols), len(p.base), len(pipe.Keep), len(lib.Candidates))
	}
	mixed := false
	for i, c := range p.cols {
		if c.in != pipe.Keep[i] || c.src != c.in || c.dep != features.DepOf(c.src) {
			t.Errorf("col %d = %+v, want pipeline column %d read at the same Table II index", i, c, pipe.Keep[i])
		}
		if p.uniform[i] != (c.dep == features.ShapeOnly) {
			t.Errorf("col %d: uniform %v for dep %d", i, p.uniform[i], c.dep)
		}
		mixed = mixed || c.dep == features.Mixed
		for r, cand := range lib.Candidates {
			want := 0.0
			if c.dep == features.ThreadsOnly {
				want = pipe.TransformColumn(c.in, float64(cand))
			}
			if got := p.base[r*len(p.cols)+i]; got != want {
				t.Errorf("base[%d][%d] = %v, want %v", r, i, got, want)
			}
		}
	}
	if p.mixed != mixed {
		t.Errorf("plan.mixed = %v, columns say %v", p.mixed, mixed)
	}
}
