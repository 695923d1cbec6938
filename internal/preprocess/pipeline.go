package preprocess

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Options configures pipeline fitting. The zero value is not useful;
// use DefaultOptions.
type Options struct {
	// LOFNeighbours is k for the outlier filter; LOFThreshold the maximum
	// admissible score. LOFNeighbours <= 0 disables outlier removal.
	LOFNeighbours int
	LOFThreshold  float64
	// CorrThreshold is the |Pearson| level above which one feature of a
	// correlated pair is dropped (§IV-C: 80%). <= 0 disables pruning.
	CorrThreshold float64
	// LogTarget fits models to ln(y) instead of y. The paper regresses raw
	// runtime; runtimes in this domain span five orders of magnitude, so the
	// log keeps small-GEMM residuals visible to the loss. Predictions are
	// mapped back with exp. Documented as a deviation in DESIGN.md.
	LogTarget bool
}

// DefaultOptions mirrors the paper's settings (LOF with k=20, threshold 1.5,
// 80% correlation pruning) plus the log-target device.
func DefaultOptions() Options {
	return Options{LOFNeighbours: 20, LOFThreshold: 1.5, CorrThreshold: 0.8, LogTarget: true}
}

// Pipeline is a fitted, serialisable preprocessing chain:
// Yeo-Johnson per column → standardise → select surviving columns.
// Row filtering (LOF) happens only at fit time.
type Pipeline struct {
	InputCols []string       `json:"input_cols"`
	YJ        []YeoJohnson   `json:"yeo_johnson"`
	Scaler    StandardScaler `json:"scaler"`
	// Keep[i] is the index into InputCols of the i-th surviving feature.
	Keep      []int `json:"keep"`
	LogTarget bool  `json:"log_target"`
}

// Fit learns the preprocessing chain from d and returns the transformed
// training dataset (rows possibly removed by LOF, columns possibly pruned).
func Fit(d *dataset.Dataset, opts Options) (*Pipeline, *dataset.Dataset, error) {
	if d.Len() == 0 {
		return nil, nil, fmt.Errorf("preprocess: empty dataset")
	}
	w := len(d.Cols)
	p := &Pipeline{
		InputCols: append([]string(nil), d.Cols...),
		YJ:        make([]YeoJohnson, w),
		LogTarget: opts.LogTarget,
	}

	// 1. Yeo-Johnson per column (λ by MLE).
	colVals := make([][]float64, w)
	for j := 0; j < w; j++ {
		col := make([]float64, d.Len())
		for i, row := range d.X {
			col[i] = row[j]
		}
		colVals[j] = col
		yj, err := FitYeoJohnson(col)
		if err != nil {
			return nil, nil, fmt.Errorf("preprocess: column %q: %w", d.Cols[j], err)
		}
		p.YJ[j] = yj
	}
	X := make([][]float64, d.Len())
	for i, row := range d.X {
		r := make([]float64, w)
		for j, v := range row {
			r[j] = p.YJ[j].Transform(v)
		}
		X[i] = r
	}

	// 2. Standardise.
	scaler, err := FitScaler(X)
	if err != nil {
		return nil, nil, err
	}
	p.Scaler = scaler
	for _, row := range X {
		scaler.Transform(row)
	}

	// 3. LOF row filtering (after standardisation: density needs one scale).
	rows := seq(len(X))
	if opts.LOFNeighbours > 0 && len(X) > opts.LOFNeighbours {
		rows, err = FilterLOF(X, opts.LOFNeighbours, opts.LOFThreshold)
		if err != nil {
			return nil, nil, err
		}
		if len(rows) == 0 {
			return nil, nil, fmt.Errorf("preprocess: LOF removed every row (threshold %v too strict)", opts.LOFThreshold)
		}
	}

	// 4. Correlation pruning on the surviving rows.
	p.Keep = seq(w)
	if opts.CorrThreshold > 0 {
		kept := make([][]float64, w)
		for j := 0; j < w; j++ {
			col := make([]float64, len(rows))
			for i, r := range rows {
				col[i] = X[r][j]
			}
			kept[j] = col
		}
		p.Keep = pruneCorrelated(kept, opts.CorrThreshold)
	}

	// Assemble the transformed training set.
	outCols := make([]string, len(p.Keep))
	for i, j := range p.Keep {
		outCols[i] = d.Cols[j]
	}
	out := dataset.New(outCols)
	for _, r := range rows {
		row := make([]float64, len(p.Keep))
		for i, j := range p.Keep {
			row[i] = X[r][j]
		}
		y := d.Y[r]
		if opts.LogTarget {
			if y <= 0 {
				return nil, nil, fmt.Errorf("preprocess: non-positive target %v at row %d with LogTarget", y, r)
			}
			y = math.Log(y)
		}
		out.Append(row, y)
	}
	return p, out, nil
}

// Transform maps one raw feature row (full InputCols width) to the model's
// input space. The input slice is not modified.
func (p *Pipeline) Transform(row []float64) []float64 {
	if len(row) != len(p.InputCols) {
		panic(fmt.Sprintf("preprocess: Transform row width %d, want %d", len(row), len(p.InputCols)))
	}
	out := make([]float64, len(p.Keep))
	for i, j := range p.Keep {
		out[i] = p.TransformColumn(j, row[j])
	}
	return out
}

// TransformColumn maps one raw value of input column j (an index into
// InputCols) to the model's input space: Yeo-Johnson, then standardise. It is
// the pipeline's only per-value transform — Transform and the runtime
// library's ranking plan both go through it, so a row assembled column by
// column is bit-identical to a transformed row.
//
//adsala:zeroalloc
func (p *Pipeline) TransformColumn(j int, v float64) float64 {
	return (p.YJ[j].Transform(v) - p.Scaler.Mean[j]) / p.Scaler.Std[j]
}

// UntransformTarget maps a model prediction back to seconds.
func (p *Pipeline) UntransformTarget(v float64) float64 {
	if p.LogTarget {
		return math.Exp(v)
	}
	return v
}

// OutputCols returns the surviving feature names in model-input order.
func (p *Pipeline) OutputCols() []string {
	out := make([]string, len(p.Keep))
	for i, j := range p.Keep {
		out[i] = p.InputCols[j]
	}
	return out
}

// MarshalJSONSelf / load helpers.
func (p *Pipeline) Marshal() ([]byte, error) { return json.Marshal(p) }

// UnmarshalPipeline restores a pipeline written by Marshal.
func UnmarshalPipeline(data []byte) (*Pipeline, error) {
	var p Pipeline
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("preprocess: decode pipeline: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate checks that the pipeline can transform any row of InputCols width
// into finite values: every per-column slice matches InputCols, every Keep
// index is in range, and each kept column has a finite λ and mean and a
// finite positive std. Fit only produces valid pipelines; this is the gate
// for one decoded from an artefact.
func (p *Pipeline) Validate() error {
	w := len(p.InputCols)
	if len(p.YJ) != w {
		return fmt.Errorf("preprocess: pipeline yeo_johnson has %d entries for %d input_cols", len(p.YJ), w)
	}
	if len(p.Scaler.Mean) != w {
		return fmt.Errorf("preprocess: pipeline scaler.mean has %d entries for %d input_cols", len(p.Scaler.Mean), w)
	}
	if len(p.Scaler.Std) != w {
		return fmt.Errorf("preprocess: pipeline scaler.std has %d entries for %d input_cols", len(p.Scaler.Std), w)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for i, j := range p.Keep {
		if j < 0 || j >= w {
			return fmt.Errorf("preprocess: pipeline keep[%d] = %d outside %d input_cols", i, j, w)
		}
		if l := p.YJ[j].Lambda; !finite(l) {
			return fmt.Errorf("preprocess: pipeline yeo_johnson[%d].lambda = %v", j, l)
		}
		if m := p.Scaler.Mean[j]; !finite(m) {
			return fmt.Errorf("preprocess: pipeline scaler.mean[%d] = %v", j, m)
		}
		if sd := p.Scaler.Std[j]; !(sd > 0) || !finite(sd) {
			return fmt.Errorf("preprocess: pipeline scaler.std[%d] = %v, want finite and positive", j, sd)
		}
	}
	return nil
}

// pruneCorrelated drops one feature from every pair with |corr| above the
// threshold — the one with the larger total absolute correlation against all
// other features (§IV-C) — and returns the surviving column indices.
func pruneCorrelated(cols [][]float64, threshold float64) []int {
	w := len(cols)
	corr := make([][]float64, w)
	for i := range corr {
		corr[i] = make([]float64, w)
		corr[i][i] = 1
	}
	for i := 0; i < w; i++ {
		for j := i + 1; j < w; j++ {
			c := math.Abs(stats.Correlation(cols[i], cols[j]))
			corr[i][j], corr[j][i] = c, c
		}
	}
	dropped := make([]bool, w)
	for {
		// Find the worst surviving pair.
		bi, bj, best := -1, -1, threshold
		for i := 0; i < w; i++ {
			if dropped[i] {
				continue
			}
			for j := i + 1; j < w; j++ {
				if dropped[j] {
					continue
				}
				if corr[i][j] > best {
					bi, bj, best = i, j, corr[i][j]
				}
			}
		}
		if bi < 0 {
			break
		}
		// Drop the member with the larger total correlation to others.
		ti, tj := 0.0, 0.0
		for k := 0; k < w; k++ {
			if dropped[k] || k == bi || k == bj {
				continue
			}
			ti += corr[bi][k]
			tj += corr[bj][k]
		}
		if ti >= tj {
			dropped[bi] = true
		} else {
			dropped[bj] = true
		}
	}
	var keep []int
	for i := 0; i < w; i++ {
		if !dropped[i] {
			keep = append(keep, i)
		}
	}
	return keep
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
