//go:build !race

package blas

// raceEnabled reports whether the race detector is active. Instrumentation
// perturbs alloc counts, so the allocation-count tests skip under it, and the
// operand order gc emits for the small-path loops, so TestSmallVecBits
// compares NaN payloads only without it.
const raceEnabled = false
