//go:build race

package adsala

// raceEnabled reports whether the race detector is active; the allocation-
// count tests skip under it because sync.Pool randomly drops Puts under
// race instrumentation, so pooled-context reuse cannot be asserted.
const raceEnabled = true
