package main

import (
	"math"
	"math/rand"
)

// key is one (operation, canonical shape) decision key. Symmetric updates
// carry (n, k, n).
type key struct {
	op      opKind
	m, k, n int
}

func (q key) flops() float64 { return flopsOf(q.op, q.m, q.k, q.n) }

// bytes is the computed (not measured) f32 traffic of one call: every
// operand read once and the result written once.
func (q key) bytes() float64 {
	switch q.op {
	case opSYRK:
		return 4 * float64(q.m*q.k+q.m*q.m)
	case opSYR2K:
		return 4 * float64(2*q.m*q.k+q.m*q.m)
	}
	return 4 * float64(q.m*q.k+q.k*q.n+q.m*q.n)
}

// hotShapes are the eight fixed tiny shapes of hot_small (dims 4–16): small
// enough that the kernel is about 2 µs and the facade's share shows.
func hotShapes() []key {
	return []key{
		{opGEMM, 4, 4, 4}, {opGEMM, 8, 8, 8}, {opGEMM, 16, 16, 16}, {opGEMM, 8, 16, 4},
		{opSYRK, 8, 8, 8}, {opSYRK, 16, 4, 16}, {opSYR2K, 8, 8, 8}, {opSYR2K, 12, 16, 12},
	}
}

// Small-shape space of cold_small: every dimension in [coldLo, coldHi].
const (
	coldLo   = 4
	coldHi   = 64
	coldSide = coldHi - coldLo + 1
	// coldSpace counts the distinct keys: GEMM has three free dimensions,
	// the two symmetric updates two each.
	coldSpace = coldSide*coldSide*coldSide + 2*coldSide*coldSide
)

// coldStream walks the whole small-shape key space in a seeded order
// without repeating a key until all coldSpace keys were visited (a full-
// period linear walk i → a·i + b mod coldSpace). The decision cache holds
// 4096 keys, so even after a wrap every call is a miss.
type coldStream struct {
	pos, step uint64
}

func newColdStream(seed int64) *coldStream {
	rng := rand.New(rand.NewSource(seed))
	step := uint64(rng.Intn(coldSpace-2) + 1)
	for gcd(step, coldSpace) != 1 {
		step++
	}
	return &coldStream{pos: uint64(rng.Intn(coldSpace)), step: step}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (s *coldStream) next() key {
	s.pos = (s.pos + s.step) % coldSpace
	i := int(s.pos)
	const cube, square = coldSide * coldSide * coldSide, coldSide * coldSide
	if i < cube {
		return key{opGEMM, coldLo + i/square, coldLo + i/coldSide%coldSide, coldLo + i%coldSide}
	}
	i -= cube
	op := opSYRK
	if i >= square {
		op, i = opSYR2K, i-square
	}
	n, k := coldLo+i/coldSide, coldLo+i%coldSide
	return key{op, n, k, n}
}

// radicalInverse is the Halton sequence's i-th point in one base.
func radicalInverse(i, base int) float64 {
	f, r := 1.0, 0.0
	for ; i > 0; i /= base {
		f /= float64(base)
		r += f * float64(i%base)
	}
	return r
}

// Mid-size domain of halton_mid, the real-hardware twin of the paper's
// Tables V/VI sample: dimensions up to 512 with the paper's square-root
// density, f32 footprint at most 2 MB.
const (
	haltonMinDim   = 8
	haltonMaxDim   = 512
	haltonMaxBytes = 2 << 20
	haltonJitter   = 1.04
)

// haltonShapes returns count shapes, half GEMM, a quarter each SYRK and
// SYR2K. The Halton points are fixed; the seed reshapes every one of them
// at constant FLOPs (two dimensions scaled by seeded factors within
// haltonJitter, the third by the inverse product): every seed runs other
// cache keys, but so nearly the same work that times compare across seeds.
// (A wider jitter moves shapes across the model's 1-or-2-thread boundary and
// made seeds differ by 15 %.)
func haltonShapes(seed int64, count int) []key {
	rng := rand.New(rand.NewSource(seed))
	factor := func() float64 { return math.Exp((2*rng.Float64() - 1) * math.Log(haltonJitter)) }
	dim := func(u float64) float64 { return haltonMinDim + u*u*(haltonMaxDim-haltonMinDim) }
	round := func(x float64) int { return max(haltonMinDim/2, int(math.Round(x))) }
	out := make([]key, 0, count)
	for i := 1; len(out) < count; i++ {
		m, k, n := dim(radicalInverse(i, 2)), dim(radicalInverse(i, 3)), dim(radicalInverse(i, 5))
		op := [...]opKind{opGEMM, opGEMM, opSYRK, opSYR2K}[len(out)%4]
		if op != opGEMM {
			n = m
		}
		if 4*(m*k+k*n+m*n) > haltonMaxBytes {
			continue
		}
		fa, fb := factor(), factor()
		if op == opGEMM {
			out = append(out, key{op, round(m * fa), round(k * fb), round(n / (fa * fb))})
		} else {
			nn := round(m * fa)
			out = append(out, key{op, nn, round(k / (fa * fa)), nn})
		}
	}
	return out
}

// decisionKeys returns count distinct seeded keys with dimensions up to
// 4096 — serving-side working sets, for which no matrix is allocated. ops
// are dealt round-robin.
func decisionKeys(seed int64, count int) []key {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[key]bool, count)
	out := make([]key, 0, count)
	for len(out) < count {
		q := key{allOps[len(out)%len(allOps)], 1 + rng.Intn(4096), 1 + rng.Intn(4096), 1 + rng.Intn(4096)}
		if q.op != opGEMM {
			q.n = q.m
		}
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}
