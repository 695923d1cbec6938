package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewF32Zeroed(t *testing.T) {
	m := NewF32(3, 5)
	if m.Rows != 3 || m.Cols != 5 || m.Stride != 5 {
		t.Fatalf("unexpected header: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewF32(4, 4)
	m.Set(2, 3, 1.5)
	if m.At(2, 3) != 1.5 {
		t.Errorf("At(2,3) = %v, want 1.5", m.At(2, 3))
	}
	d := NewF64(4, 4)
	d.Set(0, 0, -2.25)
	if d.At(0, 0) != -2.25 {
		t.Errorf("At(0,0) = %v, want -2.25", d.At(0, 0))
	}
}

func TestAlignment(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100, 1023} {
		f := NewF32(n, n)
		if !f.Aligned() {
			t.Errorf("F32 %d×%d not 64-byte aligned", n, n)
		}
		d := NewF64(n, 1)
		if !d.Aligned() {
			t.Errorf("F64 %d×1 not 64-byte aligned", n)
		}
	}
	if !NewF32(0, 0).Aligned() {
		t.Error("empty matrix should report aligned")
	}
}

func TestNegativeDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewF32(-1, 2) should panic")
		}
	}()
	NewF32(-1, 2)
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewF64(5, 7)
	m.FillRandom(rng)
	c := m.Clone()
	if c.MaxAbsDiff(m) != 0 {
		t.Fatal("clone differs from original")
	}
	c.Set(0, 0, 999)
	if m.At(0, 0) == 999 {
		t.Error("mutating clone affected original")
	}
}

func TestCloneCompactsStride(t *testing.T) {
	m := &F32{Rows: 2, Cols: 3, Stride: 8, Data: make([]float32, 16)}
	m.Set(1, 2, 7)
	c := m.Clone()
	if c.Stride != 3 {
		t.Errorf("clone stride = %d, want 3", c.Stride)
	}
	if c.At(1, 2) != 7 {
		t.Errorf("clone lost data through stride compaction")
	}
}

func TestFill(t *testing.T) {
	m := NewF32(3, 3)
	m.Fill(2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 2.5 {
				t.Fatalf("Fill missed (%d,%d)", i, j)
			}
		}
	}
}

func TestFillRandomRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewF32(20, 20)
	m.FillRandom(rng)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := m.At(i, j)
			if v < -1 || v >= 1 {
				t.Fatalf("FillRandom value %v out of [-1,1)", v)
			}
		}
	}
}

func TestMaxAbsDiffShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxAbsDiff on mismatched shapes should panic")
		}
	}()
	NewF64(2, 2).MaxAbsDiff(NewF64(2, 3))
}

// Property: At/Set round-trips for arbitrary in-range coordinates.
func TestAtSetProperty(t *testing.T) {
	m := NewF64(17, 13)
	f := func(i, j uint8, v float64) bool {
		r, c := int(i)%17, int(j)%13
		m.Set(r, c, v)
		return m.At(r, c) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
