//go:build race

package blas

// raceEnabled reports whether the race detector is active. Instrumentation
// perturbs alloc counts, so the allocation-count tests skip under it.
const raceEnabled = true
