// Package halton generates scrambled Halton low-discrepancy sequences.
//
// The paper samples the GEMM shape domain with a scrambled Halton sequence to
// obtain an even coverage of (m, k, n) space while avoiding the correlation
// artefacts of the plain Halton construction in higher dimensions. Scrambling
// follows the random-digit-permutation scheme of Mascagni & Chi (2004): each
// base b gets a fixed random permutation of {0..b-1} applied to every digit
// (with the convention that digit 0 maps to 0 so the sequence stays in [0,1)).
package halton

import (
	"fmt"
	"math/rand"
)

// Primes suitable as Halton bases, in order. The paper states bases 2, 3 and
// 4; base 4 is composite and breaks the equidistribution guarantee of the
// van der Corput radical inverse, so this implementation uses consecutive
// primes instead (see DESIGN.md §2).
var defaultBases = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}

// Sequence is a scrambled Halton sequence over a fixed number of dimensions.
// The zero value is not usable; construct with New.
type Sequence struct {
	bases []int
	perms [][]int // perms[d][digit] = scrambled digit, perms[d][0] == 0
	index int64   // next index to emit (starts at 1: index 0 is all-zeros)
}

// New returns a scrambled Halton sequence with dim dimensions, using the
// first dim primes as bases and a digit-scrambling permutation derived from
// seed. dim must be between 1 and len(defaultBases).
func New(dim int, seed int64) (*Sequence, error) {
	if dim < 1 || dim > len(defaultBases) {
		return nil, fmt.Errorf("halton: dimension %d out of range [1,%d]", dim, len(defaultBases))
	}
	return NewWithBases(defaultBases[:dim], seed)
}

// NewWithBases returns a scrambled Halton sequence with the given bases.
// Each base must be >= 2. Bases should be pairwise coprime (primes) for the
// sequence to be low-discrepancy; this is not enforced.
func NewWithBases(bases []int, seed int64) (*Sequence, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("halton: no bases supplied")
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Sequence{
		bases: append([]int(nil), bases...),
		perms: make([][]int, len(bases)),
		index: 1,
	}
	for d, b := range bases {
		if b < 2 {
			return nil, fmt.Errorf("halton: base %d must be >= 2", b)
		}
		s.perms[d] = scramblePermutation(b, rng)
	}
	return s, nil
}

// scramblePermutation builds a random permutation of {0..b-1} that fixes 0,
// so that the radical inverse of trailing zero digits remains zero and the
// sequence stays inside [0, 1).
func scramblePermutation(b int, rng *rand.Rand) []int {
	p := make([]int, b)
	for i := range p {
		p[i] = i
	}
	// Fisher–Yates over positions 1..b-1 only.
	for i := b - 1; i > 1; i-- {
		j := 1 + rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Dim returns the number of dimensions of the sequence.
func (s *Sequence) Dim() int { return len(s.bases) }

// Next returns the next point of the sequence. Every coordinate lies in
// [0, 1). The returned slice is freshly allocated.
func (s *Sequence) Next() []float64 {
	p := make([]float64, len(s.bases))
	s.NextInto(p)
	return p
}

// NextInto fills dst with the next point of the sequence. dst must have
// length Dim().
func (s *Sequence) NextInto(dst []float64) {
	if len(dst) != len(s.bases) {
		panic(fmt.Sprintf("halton: NextInto dst length %d != dim %d", len(dst), len(s.bases)))
	}
	for d := range s.bases {
		dst[d] = radicalInverse(s.index, s.bases[d], s.perms[d])
	}
	s.index++
}

// Sample returns the next n points as an n × Dim matrix (row per point).
func (s *Sequence) Sample(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// radicalInverse computes the scrambled van der Corput radical inverse of i
// in the given base: digits of i in that base are permuted and mirrored
// around the radix point.
func radicalInverse(i int64, base int, perm []int) float64 {
	b := int64(base)
	inv := 1.0 / float64(base)
	f := inv
	var r float64
	for i > 0 {
		digit := int(i % b)
		r += f * float64(perm[digit])
		i /= b
		f *= inv
	}
	return r
}
