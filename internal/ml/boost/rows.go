package boost

import (
	"fmt"
	"math/bits"

	"repro/internal/ml"
)

// Both optional interfaces are found by type assertion, so a signature that
// drifts would silently fall back to the per-row loop; pin them here.
var (
	_ ml.RowsPredictor = (*XGB)(nil)
	_ ml.RowsPredictor = (*LGBM)(nil)
	_ ml.WidthChecker  = (*XGB)(nil)
	_ ml.WidthChecker  = (*LGBM)(nil)
)

// Batch prediction for both boosters. A ranking pass evaluates one shape at
// every candidate thread count: most feature columns are then equal in every
// row, so most splits send the whole row set the same way. Walking each tree
// once for the set — instead of once per row — decides those splits once,
// and only a split on a varying column partitions the set.

// rowChunk is the number of rows one traversal covers: a node's row set is
// the bits of a uint64. Longer inputs are walked chunk by chunk.
const rowChunk = 64

// cell is one element of the matrix the trees split on: a transformed
// feature value for XGB, a bin index for LGBM.
type cell interface{ float64 | uint16 }

// treeWalk holds what the traversals of one chunk share.
type treeWalk[T cell] struct {
	x       []T    // the chunk's rows, row-major
	width   int    // columns per row
	uniform []bool // uniform[f]: column f is equal in every row
	lr      float64
	out     []float64 // the chunk's predictions, one per row
}

// run sets every row's prediction to base and adds every tree in order, so
// each row's sum is built exactly as Predict builds it.
//
//adsala:zeroalloc
func (w *treeWalk[T]) run(base float64, trees [][]xgbNode) {
	for i := range w.out {
		w.out[i] = base
	}
	all := ^uint64(0) >> (rowChunk - len(w.out))
	for _, t := range trees {
		w.add(t, 0, all)
	}
}

// add adds lr·leaf to the prediction of every row in mask, where leaf is
// the leaf the row reaches from node i. Rows of a mask stay together until a
// split on a varying column separates them.
//
//adsala:zeroalloc
func (w *treeWalk[T]) add(nodes []xgbNode, i int, mask uint64) {
	for {
		nd := &nodes[i]
		f := nd.Feature
		if f < 0 {
			v := float64(w.lr * nd.Value) // rounded before the add, as in Predict
			for m := mask; m != 0; m &= m - 1 {
				w.out[bits.TrailingZeros64(m)] += v
			}
			return
		}
		var left uint64
		if w.uniform[f] {
			if float64(w.x[bits.TrailingZeros64(mask)*w.width+f]) <= nd.Threshold {
				left = mask
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				r := bits.TrailingZeros64(m)
				// A 0/1 the compiler sets without a branch: the outcome
				// is data-dependent and mispredicts as a jump.
				var goesLeft uint64
				if float64(w.x[r*w.width+f]) <= nd.Threshold {
					goesLeft = 1
				}
				left |= goesLeft << r
			}
		}
		switch right := mask &^ left; {
		case right == 0:
			i = nd.Left
		case left == 0:
			i = nd.Right
		default:
			w.add(nodes, nd.Left, left)
			i, mask = nd.Right, right
		}
	}
}

// PredictRows implements ml.RowsPredictor.
//
//adsala:zeroalloc
func (x *XGB) PredictRows(m []float64, width int, uniform []bool, out []float64) bool {
	w := treeWalk[float64]{width: width, uniform: uniform, lr: x.Params.withDefaults().LearningRate}
	for lo := 0; lo < len(out); lo += rowChunk {
		hi := min(lo+rowChunk, len(out))
		w.x, w.out = m[lo*width:hi*width], out[lo:hi]
		w.run(x.Base, x.Trees)
	}
	return true
}

// PredictRows implements ml.RowsPredictor. Rows are binned into a
// stack-backed chunk (a uniform column once per chunk, not once per row);
// rows wider than Predict's own stack buffer are declined.
//
//adsala:zeroalloc
func (l *LGBM) PredictRows(m []float64, width int, uniform []bool, out []float64) bool {
	if width > maxStackWidth {
		return false
	}
	var bins [rowChunk * maxStackWidth]uint16
	w := treeWalk[uint16]{width: width, uniform: uniform, lr: l.Params.withDefaults().LearningRate}
	for lo := 0; lo < len(out); lo += rowChunk {
		hi := min(lo+rowChunk, len(out))
		rows := m[lo*width : hi*width]
		for f := 0; f < width; f++ {
			if uniform[f] {
				b := uint16(binOf(l.BinEdges[f], rows[f]))
				for i := f; i < len(rows); i += width {
					bins[i] = b
				}
				continue
			}
			for i := f; i < len(rows); i += width {
				bins[i] = uint16(binOf(l.BinEdges[f], rows[i]))
			}
		}
		w.x, w.out = bins[:len(rows)], out[lo:hi]
		w.run(l.Base, l.Trees)
	}
	return true
}

// checkTrees verifies that evaluating the trees on rows of the given width
// cannot index outside a row or a tree, and terminates: every split feature
// is a column of the row and both children of a split lie later in the same
// tree (the order both builders emit), so a walk only moves forward.
func checkTrees(trees [][]xgbNode, width int) error {
	for t, nodes := range trees {
		if len(nodes) == 0 {
			return fmt.Errorf("trees[%d] is empty", t)
		}
		for i, nd := range nodes {
			if nd.Feature < 0 {
				continue
			}
			if nd.Feature >= width {
				return fmt.Errorf("trees[%d][%d].f = %d, model input has %d columns", t, i, nd.Feature, width)
			}
			if nd.Left <= i || nd.Left >= len(nodes) || nd.Right <= i || nd.Right >= len(nodes) {
				return fmt.Errorf("trees[%d][%d] children l=%d r=%d outside (%d, %d)", t, i, nd.Left, nd.Right, i, len(nodes))
			}
		}
	}
	return nil
}

// CheckWidth implements ml.WidthChecker.
func (x *XGB) CheckWidth(width int) error {
	if err := checkTrees(x.Trees, width); err != nil {
		return fmt.Errorf("boost: xgb %w", err)
	}
	return nil
}

// CheckWidth implements ml.WidthChecker.
func (l *LGBM) CheckWidth(width int) error {
	if len(l.BinEdges) != width {
		return fmt.Errorf("boost: lgbm bin_edges covers %d columns, model input has %d", len(l.BinEdges), width)
	}
	if err := checkTrees(l.Trees, width); err != nil {
		return fmt.Errorf("boost: lgbm %w", err)
	}
	return nil
}
