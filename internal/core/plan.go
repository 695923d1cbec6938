package core

import (
	"fmt"
	"slices"

	"repro/internal/features"
	"repro/internal/ml"
)

// planCol is one column of the model's input: where its raw value comes
// from and what it depends on.
type planCol struct {
	in  int          // index into the pipeline's InputCols (its Keep entry)
	src int          // index into features.Columns() the raw value is read at
	dep features.Dep // decides how often a ranking pass transforms it
}

// rankPlan is an OpModel compiled against a candidate set: everything about
// a ranking pass that does not depend on the shape, worked out (and checked)
// once when the model is installed.
type rankPlan struct {
	mod     *OpModel
	cols    []planCol // the model's input columns, in model-input order
	uniform []bool    // cols[i] is shape-only, hence equal across candidates
	mixed   bool      // some column needs the shape and the thread count
	// base is the candidates × len(cols) input matrix with the columns that
	// depend on the thread count alone already transformed, the rest zero.
	base []float64
}

// compilePlan checks the model against the feature schema and the candidate
// set and builds its rank plan. Every index the ranking path will use is
// proved in range here.
func compilePlan(m *OpModel, candidates []int) (*rankPlan, error) {
	if m == nil || m.Model == nil || m.Pipeline == nil {
		return nil, fmt.Errorf("model or pipeline missing")
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("no candidate thread counts")
	}
	for i, c := range candidates {
		if c < 1 {
			return nil, fmt.Errorf("candidates[%d] = %d, want at least one thread", i, c)
		}
	}

	pipe := m.Pipeline
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	// src maps a pipeline input column to its Table II column by name: the
	// identity for a full-feature model, a subset for a column-restricted
	// (ablation) one.
	all := features.Columns()
	src := make([]int, len(pipe.InputCols))
	for i, name := range pipe.InputCols {
		if src[i] = slices.Index(all, name); src[i] < 0 {
			return nil, fmt.Errorf("input_cols[%d] = %q is not a Table II feature", i, name)
		}
	}
	w := len(pipe.Keep)
	if w == 0 {
		return nil, fmt.Errorf("pipeline keep is empty")
	}
	if err := ml.CheckWidth(m.Model, w); err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}

	p := &rankPlan{
		mod:     m,
		cols:    make([]planCol, w),
		uniform: make([]bool, w),
		base:    make([]float64, len(candidates)*w),
	}
	for i, j := range pipe.Keep {
		dep := features.DepOf(src[j])
		p.cols[i] = planCol{in: j, src: src[j], dep: dep}
		p.uniform[i] = dep == features.ShapeOnly
		p.mixed = p.mixed || dep == features.Mixed
	}
	raw := make([]float64, len(all))
	for r, cand := range candidates {
		features.RowInto(1, 1, 1, cand, raw) // any shape: only thread-only columns are read
		for i, c := range p.cols {
			if c.dep == features.ThreadsOnly {
				p.base[r*w+i] = pipe.TransformColumn(c.in, raw[c.src])
			}
		}
	}
	return p, nil
}
