// Package dataset provides the column-named tabular container shared by the
// sampling, preprocessing, training and experiment layers.
package dataset

import (
	"fmt"
	"math/rand"
)

// Dataset is a feature matrix with named columns and a regression target.
// Rows of X and elements of Y correspond one-to-one.
type Dataset struct {
	Cols []string    // feature column names
	X    [][]float64 // row-major feature rows
	Y    []float64   // regression target (GEMM runtime in seconds)
}

// New returns an empty dataset with the given column names.
func New(cols []string) *Dataset {
	return &Dataset{Cols: append([]string(nil), cols...)}
}

// Len returns the number of rows.
func (d *Dataset) Len() int { return len(d.X) }

// Append adds one row. It panics if the row width disagrees with Cols —
// construction is programmer-controlled.
func (d *Dataset) Append(row []float64, y float64) {
	if len(row) != len(d.Cols) {
		panic(fmt.Sprintf("dataset: row width %d != %d columns", len(row), len(d.Cols)))
	}
	d.X = append(d.X, row)
	d.Y = append(d.Y, y)
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	c := New(d.Cols)
	c.X = make([][]float64, len(d.X))
	for i, r := range d.X {
		c.X[i] = append([]float64(nil), r...)
	}
	c.Y = append([]float64(nil), d.Y...)
	return c
}

// Column returns a copy of the values of the named column.
func (d *Dataset) Column(name string) ([]float64, error) {
	idx := -1
	for i, c := range d.Cols {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("dataset: no column %q", name)
	}
	out := make([]float64, len(d.X))
	for i, r := range d.X {
		out[i] = r[idx]
	}
	return out, nil
}

// Select returns a new dataset containing only the named columns (in the
// given order), sharing no storage with the receiver.
func (d *Dataset) Select(cols []string) (*Dataset, error) {
	idx := make([]int, len(cols))
	for j, want := range cols {
		idx[j] = -1
		for i, c := range d.Cols {
			if c == want {
				idx[j] = i
				break
			}
		}
		if idx[j] < 0 {
			return nil, fmt.Errorf("dataset: no column %q", want)
		}
	}
	out := New(cols)
	for i, r := range d.X {
		row := make([]float64, len(cols))
		for j, ix := range idx {
			row[j] = r[ix]
		}
		out.Append(row, d.Y[i])
	}
	return out, nil
}

// Subset returns the rows at the given indices as a new dataset (rows are
// deep-copied).
func (d *Dataset) Subset(indices []int) *Dataset {
	out := New(d.Cols)
	for _, i := range indices {
		out.Append(append([]float64(nil), d.X[i]...), d.Y[i])
	}
	return out
}

// Shuffle permutes rows in place using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) {
	rng.Shuffle(len(d.X), func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// Split partitions the dataset into train and test sets with testFrac of
// rows (rounded) in the test set, after a seeded shuffle of row indices.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test *Dataset) {
	n := d.Len()
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTest := int(float64(n)*testFrac + 0.5)
	return d.Subset(idx[nTest:]), d.Subset(idx[:nTest])
}
