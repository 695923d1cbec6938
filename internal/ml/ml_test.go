package ml

import (
	"fmt"
	"math"
	"testing"
)

type constModel struct {
	V float64 `json:"v"`
}

func (c *constModel) Name() string                         { return "Const" }
func (c *constModel) Fit(X [][]float64, y []float64) error { return nil }
func (c *constModel) Predict(x []float64) float64          { return c.V }

func init() { RegisterKind("const-test", func() Regressor { return &constModel{} }) }

func TestMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	y := []float64{1, 2, 5}
	if got := RMSE(pred, y); math.Abs(got-math.Sqrt(4.0/3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if RMSE(nil, nil) != 0 {
		t.Error("empty metrics should be 0")
	}
}

func TestMetricsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"RMSE": func() { RMSE([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestValidateXY(t *testing.T) {
	if err := ValidateXY(nil, nil); err == nil {
		t.Error("empty X should error")
	}
	if err := ValidateXY([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := ValidateXY([][]float64{{}}, []float64{1}); err == nil {
		t.Error("zero-width rows should error")
	}
	if err := ValidateXY([][]float64{{1, 2}, {3}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows should error")
	}
	if err := ValidateXY([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Errorf("valid data rejected: %v", err)
	}
}

func TestPredictBatch(t *testing.T) {
	m := &constModel{V: 7}
	out := PredictBatch(m, [][]float64{{1}, {2}, {3}})
	if len(out) != 3 || out[0] != 7 || out[2] != 7 {
		t.Errorf("PredictBatch = %v", out)
	}
}

// sumModel predicts the sum of its row; batchModel adds a RowsPredictor that
// can be told to decline.
type sumModel struct{ constModel }

func (s *sumModel) Predict(x []float64) float64 {
	var t float64
	for _, v := range x {
		t += v
	}
	return t
}

type batchModel struct {
	sumModel
	decline bool
	calls   int
}

func (b *batchModel) PredictRows(x []float64, width int, uniform []bool, out []float64) bool {
	b.calls++
	if b.decline {
		return false
	}
	for i := range out {
		out[i] = -b.Predict(x[i*width : (i+1)*width]) // negated: tells the two paths apart
	}
	return true
}

func (b *batchModel) CheckWidth(width int) error {
	if width != 2 {
		return fmt.Errorf("want 2 columns")
	}
	return nil
}

// TestPredictRowsDispatch: a plain model goes through one Predict per row, a
// RowsPredictor is used when it accepts and falls back to the row loop when
// it declines — and none of the three allocates.
func TestPredictRowsDispatch(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	out := make([]float64, 3)
	uniform := make([]bool, 2)

	PredictRows(&sumModel{}, x, 2, uniform, out)
	if out[0] != 3 || out[1] != 7 || out[2] != 11 {
		t.Errorf("row loop = %v", out)
	}
	b := &batchModel{}
	PredictRows(b, x, 2, uniform, out)
	if b.calls != 1 || out[0] != -3 || out[2] != -11 {
		t.Errorf("batch path = %v after %d calls", out, b.calls)
	}
	b.decline = true
	PredictRows(b, x, 2, uniform, out)
	if b.calls != 2 || out[0] != 3 || out[2] != 11 {
		t.Errorf("declined batch = %v after %d calls, want the row loop's answer", out, b.calls)
	}
	for _, m := range []Regressor{&sumModel{}, &batchModel{}, b} {
		if n := testing.AllocsPerRun(100, func() { PredictRows(m, x, 2, uniform, out) }); n != 0 {
			t.Errorf("%T: PredictRows allocates %.1f/op, want 0", m, n)
		}
	}

	if err := CheckWidth(&sumModel{}, 9); err != nil {
		t.Errorf("model without a WidthChecker: %v", err)
	}
	if CheckWidth(b, 2) != nil || CheckWidth(b, 3) == nil {
		t.Error("CheckWidth does not reach the model's checker")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	m := &constModel{V: 3.5}
	blob, err := Marshal("const-test", m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Predict(nil); got != 3.5 {
		t.Errorf("restored Predict = %v, want 3.5", got)
	}
}

func TestPersistenceErrors(t *testing.T) {
	if _, err := Marshal("never-registered", &constModel{}); err == nil {
		t.Error("unregistered kind should error")
	}
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Error("corrupt envelope should error")
	}
	if _, err := Unmarshal([]byte(`{"kind":"nope","model":{}}`)); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestRegisterKindDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	RegisterKind("const-test", func() Regressor { return &constModel{} })
}
