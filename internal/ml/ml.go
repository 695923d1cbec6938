// Package ml defines the regressor interface shared by all eight candidate
// models of Tables III/IV, the evaluation metrics, and the persistence
// envelope used to save trained models at install time and reload them in
// the runtime library.
package ml

import (
	"encoding/json"
	"fmt"
	"math"
)

// Regressor is a trainable model mapping a feature vector to a scalar
// prediction (GEMM runtime).
type Regressor interface {
	// Name returns the model's display name as used in Tables III/IV.
	Name() string
	// Fit trains on rows X with targets y. Implementations must not retain
	// the caller's slices.
	Fit(X [][]float64, y []float64) error
	// Predict evaluates one feature vector. Calling Predict before a
	// successful Fit is a programmer error and may panic.
	Predict(x []float64) float64
}

// PredictBatch evaluates many rows with any Regressor.
func PredictBatch(r Regressor, X [][]float64) []float64 {
	out := make([]float64, len(X))
	for i, x := range X {
		out[i] = r.Predict(x)
	}
	return out
}

// RowsPredictor is the optional batch form of Predict for models that can
// share work between rows (the boosters walk each tree once for a whole set
// of rows). x is a row-major matrix of len(out) rows of the given width;
// uniform[f] promises that column f holds the same value in every row, so a
// split on it is decided once. out[i] must receive exactly Predict(row i) —
// same operations in the same order, hence the same bits. A model may
// decline an input it cannot batch by returning false with out untouched.
type RowsPredictor interface {
	PredictRows(x []float64, width int, uniform []bool, out []float64) bool
}

// PredictRows evaluates every row of the row-major matrix x into out, through
// the model's RowsPredictor when it has one and one Predict per row
// otherwise.
//
//adsala:zeroalloc
func PredictRows(r Regressor, x []float64, width int, uniform []bool, out []float64) {
	if b, ok := r.(RowsPredictor); ok && b.PredictRows(x, width, uniform, out) {
		return
	}
	for i := range out {
		out[i] = r.Predict(x[i*width : (i+1)*width])
	}
}

// WidthChecker is implemented by models that can verify, without evaluating
// anything, that Predict on rows of the given width stays inside their own
// trained state (no feature or child index out of range). The runtime
// library asks once when a model is installed, so a corrupt artefact is
// refused at load instead of panicking on its first prediction.
type WidthChecker interface {
	CheckWidth(width int) error
}

// CheckWidth runs the model's WidthChecker, if it has one.
func CheckWidth(r Regressor, width int) error {
	if c, ok := r.(WidthChecker); ok {
		return c.CheckWidth(width)
	}
	return nil
}

// ValidateXY checks the shape invariants shared by every Fit implementation.
func ValidateXY(X [][]float64, y []float64) error {
	if len(X) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	w := len(X[0])
	if w == 0 {
		return fmt.Errorf("ml: rows have no features")
	}
	for i, r := range X {
		if len(r) != w {
			return fmt.Errorf("ml: row %d has width %d, want %d", i, len(r), w)
		}
	}
	return nil
}

// RMSE returns the root mean squared error of predictions against targets.
func RMSE(pred, y []float64) float64 {
	if len(pred) != len(y) {
		panic("ml: RMSE length mismatch")
	}
	if len(y) == 0 {
		return 0
	}
	var ss float64
	for i := range y {
		d := pred[i] - y[i]
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(y)))
}

// Envelope wraps a trained model for JSON persistence: the concrete type is
// recorded by Kind and restored via the factory registry below.
type Envelope struct {
	Kind  string          `json:"kind"`
	Model json.RawMessage `json:"model"`
}

// factories maps Envelope.Kind to a constructor of the zero model.
var factories = map[string]func() Regressor{}

// RegisterKind installs a persistence factory for a model kind. It panics on
// duplicate registration — kinds are compile-time constants.
func RegisterKind(kind string, fn func() Regressor) {
	if _, dup := factories[kind]; dup {
		panic("ml: duplicate model kind " + kind)
	}
	factories[kind] = fn
}

// Marshal serialises a trained model into an envelope. The model's exported
// fields must fully describe its trained state.
func Marshal(kind string, r Regressor) ([]byte, error) {
	if _, ok := factories[kind]; !ok {
		return nil, fmt.Errorf("ml: unregistered model kind %q", kind)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("ml: marshal %s: %w", kind, err)
	}
	return json.Marshal(Envelope{Kind: kind, Model: raw})
}

// Unmarshal restores a model from an envelope produced by Marshal.
func Unmarshal(data []byte) (Regressor, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("ml: decode envelope: %w", err)
	}
	fn, ok := factories[env.Kind]
	if !ok {
		return nil, fmt.Errorf("ml: unknown model kind %q", env.Kind)
	}
	r := fn()
	if err := json.Unmarshal(env.Model, r); err != nil {
		return nil, fmt.Errorf("ml: decode %s: %w", env.Kind, err)
	}
	return r, nil
}
