package halton

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("New(0) should fail")
	}
	if _, err := New(len(defaultBases)+1, 1); err == nil {
		t.Error("New(too many dims) should fail")
	}
	if _, err := NewWithBases(nil, 1); err == nil {
		t.Error("NewWithBases(nil) should fail")
	}
	if _, err := NewWithBases([]int{1}, 1); err == nil {
		t.Error("base 1 should fail")
	}
	s, err := New(3, 42)
	if err != nil {
		t.Fatalf("New(3): %v", err)
	}
	if s.Dim() != 3 {
		t.Errorf("Dim() = %d, want 3", s.Dim())
	}
}

func TestRangeInvariant(t *testing.T) {
	s, _ := New(3, 7)
	for i := 0; i < 5000; i++ {
		p := s.Next()
		for d, v := range p {
			if v < 0 || v >= 1 {
				t.Fatalf("point %d dim %d = %v out of [0,1)", i, d, v)
			}
		}
	}
}

// With an identity permutation (seed irrelevant for base 2, whose only
// 0-fixing permutation is identity), the first base-2 values are the classic
// van der Corput sequence 1/2, 1/4, 3/4, 1/8, ...
func TestVanDerCorputBase2(t *testing.T) {
	s, _ := NewWithBases([]int{2}, 1)
	want := []float64{0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875}
	for i, w := range want {
		got := s.Next()[0]
		if math.Abs(got-w) > 1e-15 {
			t.Errorf("point %d = %v, want %v", i, got, w)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := New(3, 99)
	b, _ := New(3, 99)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(), b.Next()
		for d := range pa {
			if pa[d] != pb[d] {
				t.Fatalf("same seed diverged at point %d dim %d: %v vs %v", i, d, pa[d], pb[d])
			}
		}
	}
}

func TestSeedChangesScrambling(t *testing.T) {
	// Base 3 has a nontrivial 0-fixing permutation, so different seeds should
	// (almost surely) produce different streams in dimension 2.
	a, _ := New(2, 1)
	b, _ := New(2, 2)
	diff := false
	for i := 0; i < 50 && !diff; i++ {
		if a.Next()[1] != b.Next()[1] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical scrambled streams")
	}
}

func TestSample(t *testing.T) {
	s, _ := New(3, 11)
	pts := s.Sample(17)
	if len(pts) != 17 {
		t.Fatalf("Sample returned %d points, want 17", len(pts))
	}
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatalf("point has %d dims, want 3", len(p))
		}
	}
}

func TestNextIntoPanicsOnBadLength(t *testing.T) {
	s, _ := New(3, 1)
	defer func() {
		if recover() == nil {
			t.Error("NextInto with wrong length should panic")
		}
	}()
	s.NextInto(make([]float64, 2))
}

// Low-discrepancy sanity: over N points the count falling in [0, x) should be
// close to N*x for each dimension — much closer than random sampling's
// O(sqrt(N)) error.
func TestEquidistribution(t *testing.T) {
	const n = 4096
	s, _ := New(3, 123)
	pts := s.Sample(n)
	for d := 0; d < 3; d++ {
		for _, x := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			count := 0
			for _, p := range pts {
				if p[d] < x {
					count++
				}
			}
			got := float64(count) / n
			if math.Abs(got-x) > 0.01 {
				t.Errorf("dim %d: fraction below %v = %v, want within 0.01", d, x, got)
			}
		}
	}
}

// Property: scrambled permutations always fix 0 and are bijections.
func TestScramblePermutationProperty(t *testing.T) {
	f := func(seed int64, braw uint8) bool {
		b := 2 + int(braw%29)
		s, err := NewWithBases([]int{b}, seed)
		if err != nil {
			return false
		}
		p := s.perms[0]
		if p[0] != 0 {
			return false
		}
		seen := make([]bool, b)
		for _, v := range p {
			if v < 0 || v >= b || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: all emitted coordinates stay in [0,1) regardless of seed/base.
func TestRadicalInverseRangeProperty(t *testing.T) {
	f := func(seed int64, braw uint8, steps uint8) bool {
		b := 2 + int(braw%29)
		s, err := NewWithBases([]int{b}, seed)
		if err != nil {
			return false
		}
		for i := 0; i < int(steps); i++ {
			v := s.Next()[0]
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
