package sampling

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestShapeAccounting(t *testing.T) {
	s := Shape{M: 10, K: 20, N: 30}
	if s.Bytes(4) != 4*(200+600+300) {
		t.Errorf("Bytes = %d", s.Bytes(4))
	}
	if s.Flops() != 2*10*20*30 {
		t.Errorf("Flops = %d", s.Flops())
	}
	if s.MinDim() != 10 {
		t.Errorf("MinDim = %d", s.MinDim())
	}
	if (Shape{M: 5, K: 2, N: 9}).MinDim() != 2 {
		t.Error("MinDim should pick k")
	}
	if s.String() != "10x20x30" {
		t.Errorf("String = %q", s.String())
	}
}

func TestDomainContains(t *testing.T) {
	d := Domain{MaxDim: 100, MaxBytes: 4 * (100 + 100 + 100), ElemBytes: 4}
	if !d.Contains(Shape{10, 10, 10}) {
		t.Error("10x10x10 should fit")
	}
	if d.Contains(Shape{0, 10, 10}) {
		t.Error("zero dim should not fit")
	}
	if d.Contains(Shape{101, 1, 1}) {
		t.Error("dim above MaxDim should not fit")
	}
	if d.Contains(Shape{100, 100, 100}) {
		t.Error("over-cap shape should not fit")
	}
}

func TestNewSamplerValidation(t *testing.T) {
	if _, err := NewSampler(Domain{MaxDim: 0, MaxBytes: 1000, ElemBytes: 4}, 1); err == nil {
		t.Error("MaxDim=0 should fail")
	}
	if _, err := NewSampler(Domain{MaxDim: 10, MaxBytes: 1000, ElemBytes: 3}, 1); err == nil {
		t.Error("ElemBytes=3 should fail")
	}
	if _, err := NewSampler(Domain{MaxDim: 10, MaxBytes: 4, ElemBytes: 4}, 1); err == nil {
		t.Error("cap below 1x1x1 should fail")
	}
}

func TestSamplerRespectsDomain(t *testing.T) {
	dom := DefaultDomain().WithCapMB(100)
	s, err := NewSampler(dom, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.Sample(500) {
		if !dom.Contains(sh) {
			t.Fatalf("sample %d out of domain: %v (%d bytes)", i, sh, sh.Bytes(4))
		}
	}
}

func TestSamplerDeterminism(t *testing.T) {
	dom := DefaultDomain().WithCapMB(100)
	a, _ := NewSampler(dom, 7)
	b, _ := NewSampler(dom, 7)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("samplers with same seed diverged at %d", i)
		}
	}
}

func TestSamplerCoversSmallAndLarge(t *testing.T) {
	dom := DefaultDomain() // 500 MB
	s, _ := NewSampler(dom, 1)
	shapes := s.Sample(1000)
	small, large := 0, 0
	for _, sh := range shapes {
		if sh.MinDim() < 1000 {
			small++
		}
		if sh.M > 10000 || sh.K > 10000 || sh.N > 10000 {
			large++
		}
	}
	if small < 100 {
		t.Errorf("only %d/1000 shapes have a dim < 1000; want broad coverage", small)
	}
	if large < 100 {
		t.Errorf("only %d/1000 shapes have a dim > 10000", large)
	}
}

func TestWithCapMB(t *testing.T) {
	d := DefaultDomain().WithCapMB(100)
	if d.MaxBytes != 100*1000*1000 {
		t.Errorf("cap = %d", d.MaxBytes)
	}
}

func TestPredesignedGrid(t *testing.T) {
	pts := Predesigned()
	if len(pts) != 6*4*6 {
		t.Fatalf("grid has %d points, want 144", len(pts))
	}
	families := map[string]int{}
	for _, p := range pts {
		families[p.Family]++
		if p.Shape.M < 1 || p.Shape.K < 1 || p.Shape.N < 1 {
			t.Fatalf("bad shape %v", p.Shape)
		}
	}
	if len(families) != 24 {
		t.Errorf("expected 24 family labels, got %d", len(families))
	}
	for f, c := range families {
		if c != 6 {
			t.Errorf("family %q has %d points, want 6", f, c)
		}
	}
	// Spot-check the Table VII shapes exist in the grid.
	found := 0
	for _, p := range pts {
		if p.Shape == (Shape{64, 2048, 64}) || p.Shape == (Shape{64, 64, 4096}) {
			found++
		}
	}
	if found < 2 {
		t.Errorf("Table VII shapes missing from predesigned grid (found %d)", found)
	}
	// Family naming sanity.
	if !strings.Contains(pts[0].Family, "m=32") {
		t.Errorf("unexpected family name %q", pts[0].Family)
	}
}

// Property: every sampled shape is in-domain for arbitrary caps.
func TestSamplerDomainProperty(t *testing.T) {
	f := func(capMB uint8, seed int64) bool {
		mb := 1 + int(capMB%200)
		dom := DefaultDomain().WithCapMB(mb)
		s, err := NewSampler(dom, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 20; i++ {
			if !dom.Contains(s.Next()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
