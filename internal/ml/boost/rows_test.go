package boost

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ml"
)

// fitBoosters returns one fitted booster of each kind on a 5-column target.
func fitBoosters(t *testing.T) map[string]ml.Regressor {
	t.Helper()
	X, y := friedman(300, 0.3, 9)
	models := map[string]ml.Regressor{
		"xgb":  NewXGB(XGBParams{NRounds: 25, MaxDepth: 4, LearningRate: 0.15}),
		"lgbm": NewLGBM(LGBMParams{NRounds: 20, MaxLeaves: 15}),
	}
	for kind, m := range models {
		if err := m.Fit(X, y); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
	return models
}

// rankLikeMatrix builds rows×5 inputs the way a ranking pass does: the
// columns flagged uniform hold one value in every row, the others vary.
func rankLikeMatrix(rng *rand.Rand, rows int, uniform []bool) []float64 {
	width := len(uniform)
	x := make([]float64, rows*width)
	for f, u := range uniform {
		shared := rng.Float64()
		for r := 0; r < rows; r++ {
			if u {
				x[r*width+f] = shared
			} else {
				x[r*width+f] = rng.Float64()
			}
		}
	}
	return x
}

// TestPredictRowsMatchesPredict is the batch methods' contract: for any row
// count (one mask, exactly one mask, past one mask) and any split of the
// columns into uniform and varying, PredictRows returns Predict's bits.
func TestPredictRowsMatchesPredict(t *testing.T) {
	const width = 5
	rng := rand.New(rand.NewSource(21))
	for kind, m := range fitBoosters(t) {
		batch := m.(ml.RowsPredictor)
		for _, rows := range []int{1, 2, 16, 63, 64, 65, 130} {
			for trial := 0; trial < 20; trial++ {
				uniform := make([]bool, width)
				for f := range uniform {
					uniform[f] = trial > 0 && rng.Intn(2) == 0 // trial 0: nothing shared
				}
				if trial == 1 {
					uniform = []bool{true, true, true, true, true}
				}
				x := rankLikeMatrix(rng, rows, uniform)
				if trial == 2 {
					x[rng.Intn(len(x))] = math.NaN() // NaN goes right at every split, in both forms
					uniform = make([]bool, width)
				}
				out := make([]float64, rows)
				if !batch.PredictRows(x, width, uniform, out) {
					t.Fatalf("%s declined %d rows of width %d", kind, rows, width)
				}
				for r := range out {
					want := m.Predict(x[r*width : (r+1)*width])
					if math.Float64bits(out[r]) != math.Float64bits(want) {
						t.Fatalf("%s rows=%d trial=%d row %d: PredictRows %v, Predict %v",
							kind, rows, trial, r, out[r], want)
					}
				}
			}
		}
	}
}

// TestLGBMPredictRowsDeclinesWideRows: rows wider than the stack-backed bin
// buffer are left to the caller's per-row loop, which ml.PredictRows runs.
func TestLGBMPredictRowsDeclinesWideRows(t *testing.T) {
	width := maxStackWidth + 1
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 80)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, width)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = X[i][0] + 2*X[i][width-1]
	}
	l := NewLGBM(LGBMParams{NRounds: 5, MaxLeaves: 7})
	if err := l.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	flat := append(append([]float64(nil), X[0]...), X[1]...)
	out := make([]float64, 2)
	if l.PredictRows(flat, width, make([]bool, width), out) {
		t.Fatalf("PredictRows accepted width %d > %d", width, maxStackWidth)
	}
	ml.PredictRows(l, flat, width, make([]bool, width), out)
	for r := range out {
		if want := l.Predict(X[r]); out[r] != want {
			t.Errorf("row %d: ml.PredictRows %v, Predict %v", r, out[r], want)
		}
	}
}

// TestPredictRowsZeroAlloc pins the //adsala:zeroalloc contract of both batch
// methods (and of the tree walk under them) on a ranking-sized input.
func TestPredictRowsZeroAlloc(t *testing.T) {
	const width, rows = 5, 16
	uniform := []bool{true, false, true, true, false}
	x := rankLikeMatrix(rand.New(rand.NewSource(5)), rows, uniform)
	out := make([]float64, rows)
	for kind, m := range fitBoosters(t) {
		batch := m.(ml.RowsPredictor)
		if n := testing.AllocsPerRun(200, func() {
			batch.PredictRows(x, width, uniform, out)
		}); n != 0 {
			t.Errorf("%s PredictRows allocates %.1f/op, want 0", kind, n)
		}
	}
}

// TestCheckWidthRejectsCorruptTrees: every way a decoded tree could send
// Predict outside a row or a tree is named by CheckWidth, and a fitted model
// passes at its own width only.
func TestCheckWidthRejectsCorruptTrees(t *testing.T) {
	models := fitBoosters(t)
	for kind, m := range models {
		if err := ml.CheckWidth(m, 5); err != nil {
			t.Errorf("%s: fitted model rejected at its own width: %v", kind, err)
		}
		if err := ml.CheckWidth(m, 3); err == nil {
			t.Errorf("%s: fitted on 5 columns, accepted 3", kind)
		}
	}
	leaf := xgbNode{Feature: -1, Value: 1}
	cases := []struct {
		name  string
		nodes []xgbNode
		want  string
	}{
		{"feature out of range", []xgbNode{{Feature: 5, Left: 1, Right: 2}, leaf, leaf}, "f = 5"},
		{"child past the tree", []xgbNode{{Feature: 0, Left: 1, Right: 3}, leaf, leaf}, "children"},
		{"negative child", []xgbNode{{Feature: 0, Left: -1, Right: 2}, leaf, leaf}, "children"},
		{"self loop", []xgbNode{{Feature: 0, Left: 0, Right: 1}, leaf}, "children"},
		{"back edge", []xgbNode{{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 0, Right: 2}, leaf}, "children"},
		{"empty tree", nil, "empty"},
	}
	for _, tc := range cases {
		x := &XGB{Trees: [][]xgbNode{{leaf}, tc.nodes}}
		if err := x.CheckWidth(5); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "trees[1]") {
			t.Errorf("xgb %s: err = %v, want trees[1] … %q", tc.name, err, tc.want)
		}
		l := &LGBM{BinEdges: make([][]float64, 5), Trees: [][]xgbNode{tc.nodes}}
		if err := l.CheckWidth(5); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("lgbm %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	short := &LGBM{BinEdges: make([][]float64, 4), Trees: [][]xgbNode{{leaf}}}
	if err := short.CheckWidth(5); err == nil || !strings.Contains(err.Error(), "bin_edges") {
		t.Errorf("lgbm short bin_edges: err = %v", err)
	}
}
