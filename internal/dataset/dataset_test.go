package dataset

import (
	"math/rand"
	"testing"
)

func sample(n int, seed int64) *Dataset {
	d := New([]string{"a", "b"})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		d.Append([]float64{rng.Float64(), rng.NormFloat64()}, rng.ExpFloat64())
	}
	return d
}

func TestAppendAndLen(t *testing.T) {
	d := New([]string{"x"})
	if d.Len() != 0 {
		t.Fatal("new dataset not empty")
	}
	d.Append([]float64{1}, 2)
	if d.Len() != 1 || d.Y[0] != 2 || d.X[0][0] != 1 {
		t.Fatalf("append failed: %+v", d)
	}
}

func TestAppendWidthPanics(t *testing.T) {
	d := New([]string{"x", "y"})
	defer func() {
		if recover() == nil {
			t.Error("mismatched row width should panic")
		}
	}()
	d.Append([]float64{1}, 0)
}

func TestColumn(t *testing.T) {
	d := New([]string{"a", "b"})
	d.Append([]float64{1, 2}, 0)
	d.Append([]float64{3, 4}, 0)
	b, err := d.Column("b")
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 || b[1] != 4 {
		t.Errorf("Column(b) = %v", b)
	}
	if _, err := d.Column("zzz"); err == nil {
		t.Error("missing column should error")
	}
}

func TestSelect(t *testing.T) {
	d := New([]string{"a", "b", "c"})
	d.Append([]float64{1, 2, 3}, 9)
	s, err := d.Select([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if s.X[0][0] != 3 || s.X[0][1] != 1 || s.Y[0] != 9 {
		t.Errorf("Select gave %+v", s)
	}
	if _, err := d.Select([]string{"nope"}); err == nil {
		t.Error("missing column should error")
	}
	// Mutating the selection must not affect the original.
	s.X[0][0] = 100
	if d.X[0][2] == 100 {
		t.Error("Select shares storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := sample(5, 1)
	c := d.Clone()
	c.X[0][0] = 999
	c.Y[0] = 999
	if d.X[0][0] == 999 || d.Y[0] == 999 {
		t.Error("Clone shares storage")
	}
}

func TestSplitSizes(t *testing.T) {
	d := sample(100, 2)
	train, test := d.Split(0.3, 7)
	if train.Len() != 70 || test.Len() != 30 {
		t.Errorf("split sizes = %d/%d, want 70/30", train.Len(), test.Len())
	}
	// Same seed is reproducible.
	tr2, te2 := d.Split(0.3, 7)
	if tr2.Len() != 70 || te2.Y[0] != test.Y[0] {
		t.Error("split not reproducible with same seed")
	}
}

func TestShuffleKeepsPairs(t *testing.T) {
	d := New([]string{"v"})
	for i := 0; i < 50; i++ {
		d.Append([]float64{float64(i)}, float64(i)*10)
	}
	d.Shuffle(rand.New(rand.NewSource(9)))
	for i := range d.X {
		if d.Y[i] != d.X[i][0]*10 {
			t.Fatalf("row %d decoupled from target", i)
		}
	}
}
