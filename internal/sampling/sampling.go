// Package sampling generates GEMM shape workloads: the scrambled-Halton
// quasi-random samples of the install-time data gathering (§IV-B) and the
// predesigned sweep grids of Figs 13/14.
//
// Shapes are drawn square-root-uniformly per dimension (matching the √-scaled
// axes of Figs 9/10) up to MaxDim, then rejection-filtered against the
// aggregate memory cap 4·(mk+kn+mn) ≤ MaxBytes (single precision; 8· for
// double).
package sampling

import (
	"fmt"

	"repro/internal/halton"
)

// Shape is one GEMM input configuration: C(m×n) += A(m×k)·B(k×n).
type Shape struct {
	M, K, N int
}

// Bytes returns the aggregate operand footprint for the given element size.
func (s Shape) Bytes(elemBytes int64) int64 {
	return elemBytes * (int64(s.M)*int64(s.K) + int64(s.K)*int64(s.N) + int64(s.M)*int64(s.N))
}

// Flops returns 2·m·k·n.
func (s Shape) Flops() int64 { return 2 * int64(s.M) * int64(s.K) * int64(s.N) }

// MinDim returns the smallest of m, k, n (used by the Fig 8 filter).
func (s Shape) MinDim() int {
	min := s.M
	if s.K < min {
		min = s.K
	}
	if s.N < min {
		min = s.N
	}
	return min
}

func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.M, s.K, s.N) }

// Domain bounds the sampled shape space.
type Domain struct {
	MaxDim    int   // upper bound per dimension (paper: ~74k)
	MaxBytes  int64 // aggregate memory cap (paper: 100 MB / 500 MB)
	ElemBytes int64 // 4 for SGEMM, 8 for DGEMM
}

// DefaultDomain returns the paper's 500 MB single-precision domain.
func DefaultDomain() Domain {
	return Domain{MaxDim: 74000, MaxBytes: 500 * 1000 * 1000, ElemBytes: 4}
}

// WithCapMB returns a copy of the domain with the memory cap set to mb
// megabytes.
func (d Domain) WithCapMB(mb int) Domain {
	d.MaxBytes = int64(mb) * 1000 * 1000
	return d
}

// Contains reports whether the shape lies inside the domain.
func (d Domain) Contains(s Shape) bool {
	if s.M < 1 || s.K < 1 || s.N < 1 {
		return false
	}
	if s.M > d.MaxDim || s.K > d.MaxDim || s.N > d.MaxDim {
		return false
	}
	return s.Bytes(d.ElemBytes) <= d.MaxBytes
}

// Sampler draws shapes from a domain using a scrambled Halton sequence with
// rejection against the memory cap.
type Sampler struct {
	dom Domain
	seq *halton.Sequence
}

// NewSampler returns a Sampler over the domain with the given scramble seed.
func NewSampler(dom Domain, seed int64) (*Sampler, error) {
	if dom.MaxDim < 1 {
		return nil, fmt.Errorf("sampling: MaxDim %d < 1", dom.MaxDim)
	}
	if dom.ElemBytes != 4 && dom.ElemBytes != 8 {
		return nil, fmt.Errorf("sampling: ElemBytes must be 4 or 8, got %d", dom.ElemBytes)
	}
	if minShape := (Shape{1, 1, 1}); !dom.Contains(minShape) {
		return nil, fmt.Errorf("sampling: domain excludes even 1x1x1 (cap %d bytes)", dom.MaxBytes)
	}
	seq, err := halton.New(3, seed)
	if err != nil {
		return nil, err
	}
	return &Sampler{dom: dom, seq: seq}, nil
}

// Next returns the next in-domain shape. Low-discrepancy ordering is
// preserved across the rejection filter.
func (s *Sampler) Next() Shape {
	var pt [3]float64
	for {
		s.seq.NextInto(pt[:])
		sh := Shape{
			M: scaleDim(pt[0], s.dom.MaxDim),
			K: scaleDim(pt[1], s.dom.MaxDim),
			N: scaleDim(pt[2], s.dom.MaxDim),
		}
		if s.dom.Contains(sh) {
			return sh
		}
	}
}

// Sample returns the next n in-domain shapes.
func (s *Sampler) Sample(n int) []Shape {
	out := make([]Shape, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// scaleDim maps u ∈ [0,1) to a dimension in [1, maxDim] with square-root
// density (uniform in √dim), concentrating samples at small sizes like the
// paper's sampling domain.
func scaleDim(u float64, maxDim int) int {
	d := 1 + int(u*u*float64(maxDim-1))
	if d > maxDim {
		d = maxDim
	}
	return d
}

// SweepPoint is one cell of the predesigned grids of Figs 13/14.
type SweepPoint struct {
	Family string // e.g. "n,k (m=64)": which dims sweep, which is fixed
	Fixed  int    // the fixed small value (32/64/128/256)
	Sweep  int    // the swept value (128..4096)
	Shape  Shape
}

// FixedValues are the small fixed dimensions of Figs 13/14.
var FixedValues = []int{32, 64, 128, 256}

// SweepValues are the swept dimensions of Figs 13/14.
var SweepValues = []int{128, 256, 512, 1024, 2048, 4096}

// Predesigned returns the full 6-family × 4-fixed × 6-sweep grid of
// Figs 13/14: three families with one small dimension (two swept together)
// and three with two small dimensions (one swept).
func Predesigned() []SweepPoint {
	var out []SweepPoint
	for _, f := range FixedValues {
		for _, v := range SweepValues {
			out = append(out,
				SweepPoint{fmt.Sprintf("n,k (m=%d)", f), f, v, Shape{M: f, K: v, N: v}},
				SweepPoint{fmt.Sprintf("m,n (k=%d)", f), f, v, Shape{M: v, K: f, N: v}},
				SweepPoint{fmt.Sprintf("m,k (n=%d)", f), f, v, Shape{M: v, K: v, N: f}},
				SweepPoint{fmt.Sprintf("m (k,n=%d)", f), f, v, Shape{M: v, K: f, N: f}},
				SweepPoint{fmt.Sprintf("k (m,n=%d)", f), f, v, Shape{M: f, K: v, N: f}},
				SweepPoint{fmt.Sprintf("n (m,k=%d)", f), f, v, Shape{M: f, K: f, N: v}},
			)
		}
	}
	return out
}
