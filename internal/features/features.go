// Package features constructs the ML feature vectors of Table II from GEMM
// dimensions and thread counts: Group 1 carries the serial-runtime terms
// (operand sizes, FLOP count), Group 2 the parallel terms (work divided by
// the thread count).
package features

import (
	"repro/internal/dataset"
	"repro/internal/sampling"
)

// columns is the Table II feature list, Group 1 then Group 2.
var columns = []string{
	// Group 1: serial terms.
	"m", "k", "n", "n_threads",
	"m*k", "m*n", "k*n", "m*k*n", "m*k+k*n+m*n",
	// Group 2: parallel terms.
	"m/t", "k/t", "n/t",
	"m*k/t", "m*n/t", "k*n/t", "m*k*n/t", "(m*k+k*n+m*n)/t",
}

// group1 is the number of Group 1 columns; the remainder are Group 2.
const group1 = 9

// Dep says which inputs of Row a column's value depends on. A ranking pass
// evaluates one shape at every candidate thread count, so a ShapeOnly column
// is one value per pass and a ThreadsOnly column one value per candidate,
// whatever the shape.
type Dep uint8

const (
	ShapeOnly   Dep = iota // m, k, n and their products (Group 1 less n_threads)
	ThreadsOnly            // n_threads
	Mixed                  // Group 2: work divided by the thread count
)

// threadsCol is the index of "n_threads", the one Group 1 column that is not
// a function of the shape.
const threadsCol = 3

// DepOf classifies column col of Columns().
func DepOf(col int) Dep {
	switch {
	case col == threadsCol:
		return ThreadsOnly
	case col < group1:
		return ShapeOnly
	}
	return Mixed
}

// Columns returns the full Table II feature names in order.
func Columns() []string { return append([]string(nil), columns...) }

// Group1Columns returns only the serial-term feature names (used by the
// feature-set ablation).
func Group1Columns() []string { return append([]string(nil), columns[:group1]...) }

// Row builds one feature vector for a GEMM of the given shape run with the
// given number of threads.
func Row(m, k, n, threads int) []float64 {
	dst := make([]float64, len(columns))
	RowInto(m, k, n, threads, dst)
	return dst
}

// RowInto is Row without allocation; dst must have len(Columns()).
//
//adsala:zeroalloc
func RowInto(m, k, n, threads int, dst []float64) {
	fm, fk, fn := float64(m), float64(k), float64(n)
	t := float64(threads)
	mk, mn, kn := fm*fk, fm*fn, fk*fn
	mkn := fm * fk * fn
	total := mk + kn + mn
	dst[0], dst[1], dst[2], dst[3] = fm, fk, fn, t
	dst[4], dst[5], dst[6], dst[7], dst[8] = mk, mn, kn, mkn, total
	dst[9], dst[10], dst[11] = fm/t, fk/t, fn/t
	dst[12], dst[13], dst[14], dst[15], dst[16] = mk/t, mn/t, kn/t, mkn/t, total/t
}

// Record is one timed observation from the data-gathering phase.
type Record struct {
	Shape   sampling.Shape
	Threads int
	Seconds float64
}

// Build assembles a dataset from timing records, with the GEMM wall time as
// the regression target (§IV-A: the model predicts runtime, and thread
// selection takes the argmin over candidate thread counts).
func Build(recs []Record) *dataset.Dataset {
	d := dataset.New(columns)
	for _, r := range recs {
		d.Append(Row(r.Shape.M, r.Shape.K, r.Shape.N, r.Threads), r.Seconds)
	}
	return d
}
