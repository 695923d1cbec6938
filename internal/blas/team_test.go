package blas

// Tests of the thread team itself: the phase-2 partition as a pure function,
// the kernels with more parts than processors, dispatch across the
// linger/park boundary, a faulting part, and the workers' lifetime. The
// hangs these guard against have no assertion to fail, so the ones that can
// wedge run under a deadline of their own.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mat"
)

// bothTiles are the two micro-tiles' (MR, NR) for float32; the partition is
// arithmetic on them and is checked for both whatever the CPU runs.
var bothTiles = [][2]int{{vecMR, 16}, {goMR, goNR}}

// TestPartitionProperties checks, exhaustively over m, n ≤ 300, both tiles
// and 1–9 parts, that phase-2 ownership is an MR-aligned disjoint cover of
// the rows of C, that GEMM parts differ by at most one band, and that every
// SYRK part's tile count is within one band's of an even share.
func TestPartitionProperties(t *testing.T) {
	for _, tile := range bothTiles {
		mr, nr := tile[0], tile[1]
		for _, nc := range []int{2048, 4 * nr} { // one panel; several, so jc > 0
			prm := params{MC: 120, KC: 256, NC: nc, MR: mr, NR: nr}
			for n := 1; n <= 300; n++ {
				for parts := 1; parts <= 9; parts++ {
					checkCover(t, fmt.Sprintf("GEMM %dx%d m=%d parts=%d", mr, nr, n, parts), n, mr, parts,
						func(w int) (int, int) { return gemmRows(n, mr, w, parts) })
					minB, maxB := n, 0
					for w := 0; w < parts; w++ {
						lo, hi := gemmRows(n, mr, w, parts)
						nb := bands(hi-lo, mr)
						minB, maxB = min(minB, nb), max(maxB, nb)
					}
					if maxB-minB > 1 {
						t.Fatalf("GEMM %dx%d m=%d parts=%d: parts own %d to %d bands", mr, nr, n, parts, minB, maxB)
					}

					for jc := 0; jc < n; jc += prm.NC {
						ncb := min(prm.NC, n-jc)
						label := fmt.Sprintf("SYRK %dx%d n=%d jc=%d parts=%d", mr, nr, n, jc, parts)
						checkCover(t, label, n, mr, parts,
							func(w int) (int, int) { return syrkRows(n, jc, ncb, prm, w, parts) })
						total, maxW := 0, 0
						for b := 0; b < bands(n, mr); b++ {
							bw := syrkBandWeight(b, n, jc, ncb, prm)
							total, maxW = total+bw, max(maxW, bw)
						}
						for w := 0; w < parts; w++ {
							lo, hi := syrkRows(n, jc, ncb, prm, w, parts)
							got := 0
							for b := lo / mr; b < bands(hi, mr); b++ {
								got += syrkBandWeight(b, n, jc, ncb, prm)
							}
							// |got − total/parts| ≤ maxW + 1, in integers.
							if d := got*parts - total; d > (maxW+1)*parts || -d > (maxW+1)*parts {
								t.Fatalf("%s: part %d has %d of %d tiles (largest band %d)", label, w, got, total, maxW)
							}
						}
					}
				}
			}
		}
	}

	// Beyond the exhaustive range, at the default blocking: the sizes and
	// part counts the whole-block partition was tested with.
	def := defaultParams[float32]()
	for _, n := range []int{1, 100, 257, 1000} {
		for _, parts := range []int{1, 2, 3, 7, 16} {
			for jc := 0; jc < n; jc += def.NC {
				checkCover(t, fmt.Sprintf("SYRK default n=%d jc=%d parts=%d", n, jc, parts), n, def.MR, parts,
					func(w int) (int, int) { return syrkRows(n, jc, min(def.NC, n-jc), def, w, parts) })
			}
		}
	}

	// The shape that motivated the rule: whole MC = 120 blocks split n = 378
	// into rows 0–359 and 360–377, about 90/10 of the triangle.
	prm := params{MC: 120, KC: 256, NC: 2048, MR: vecMR, NR: 16}
	_, split := syrkRows(378, 0, 378, prm, 0, 2)
	var first, total int
	for b := 0; b < bands(378, vecMR); b++ {
		bw := syrkBandWeight(b, 378, 0, 378, prm)
		total += bw
		if b*vecMR < split {
			first += bw
		}
	}
	if share := float64(first) / float64(total); share < 0.47 || share > 0.53 {
		t.Errorf("SYRK n=378 parts=2: split at row %d gives part 0 %d of %d tiles (%.0f %%)", split, first, total, 100*share)
	}
}

// checkCover checks that rows(0), …, rows(parts-1) are consecutive,
// MR-aligned ranges that cover [0, m).
func checkCover(t *testing.T, label string, m, mr, parts int, rows func(w int) (lo, hi int)) {
	t.Helper()
	next := 0
	for w := 0; w < parts; w++ {
		lo, hi := rows(w)
		if lo != next || hi < lo || (lo%mr != 0 && lo != m) || (hi%mr != 0 && hi != m) {
			t.Fatalf("%s: part %d owns [%d,%d), want an MR-aligned range starting at %d", label, w, lo, hi, next)
		}
		next = hi
	}
	if next != m {
		t.Fatalf("%s: parts cover %d of %d rows", label, next, m)
	}
}

// TestTeamOversubscribed reruns the property test and the packed tile
// matrices with GOMAXPROCS pinned to 2 and the matrices' thread rotation
// replaced by {3, 8}, so every team has more parts than processors: each
// wait must hand the processor to the peer it waits for.
func TestTeamOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	old := matrixThreads
	matrixThreads = []int{3, 8}
	defer func() { matrixThreads = old }()
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"KernelProperty", TestKernelProperty},
		{"PackedMatchesNaiveMatrix", TestPackedMatchesNaiveMatrix},
		{"SyrkPackedMatchesNaiveMatrix", TestSyrkPackedMatchesNaiveMatrix},
		{"Syr2kPackedMatchesNaiveMatrix", TestSyr2kPackedMatchesNaiveMatrix},
	} {
		t.Run(tc.name, tc.run)
	}
}

// within runs f and fails the test if it has not returned after d: the
// failure mode of a lost wake-up or an unpoisoned barrier is a hang.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still running after %v", what, d)
	}
}

// TestTeamDispatchStress makes 20 000 back-to-back calls on one context,
// thread counts cycling 1…6, with pauses of 0, ½, 1 and 2 linger bounds in
// between, so rounds are published to workers that are polling, parking and
// parked, and to a team larger than the round. Every result is compared
// bit for bit with the serial one. Run with -race in CI.
func TestTeamDispatchStress(t *testing.T) {
	forcePath(t, forcePacked)
	calls := 20000
	if testing.Short() {
		calls = 2000
	}
	rng := rand.New(rand.NewSource(80))
	a, b := randF32(48, 16, rng), randF32(16, 48, rng)
	want := mat.NewF32(48, 48)
	ctx := NewContext()
	defer ctx.Close()
	if err := ctx.SGEMM(false, false, 1, a, b, 0, want, 1); err != nil {
		t.Fatal(err)
	}
	c := mat.NewF32(48, 48)
	within(t, 2*time.Minute, "dispatch stress", func() {
		for i := 0; i < calls; i++ {
			// One call in eight follows a pause; the rest are back to back.
			if p := rng.Intn(32); p < 4 {
				time.Sleep([...]time.Duration{0, lingerBound / 2, lingerBound, 2 * lingerBound}[p])
			}
			threads := 1 + i%6
			if err := ctx.SGEMM(false, false, 1, a, b, 0, c, threads); err != nil {
				t.Errorf("call %d threads=%d: %v", i, threads, err)
				return
			}
			for j, v := range c.Data {
				if v != want.Data[j] {
					t.Errorf("call %d threads=%d: element %d = %v, serial result %v", i, threads, j, v, want.Data[j])
					return
				}
			}
		}
	})
}

// TestTeamFaultFailsCall injects an index-out-of-range panic into one part of
// a parallel call — part 0 (the caller) and the last part, on the second KC
// iteration, for GEMM, SYRK and the second pass of SYR2K, at 2 and 5
// threads. The call must return an error naming op, shape, part and panic
// value instead of hanging peers in the barrier or the caller in the join,
// and the same context (team, buffers, barrier) must compute the next call
// correctly. The pooled entry points must behave the same.
func TestTeamFaultFailsCall(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(81))
	const n, k = 60, 20
	for _, tile := range testTiles[float32]() {
		prm := params{MC: 2 * tile[0], KC: 8, NC: 2 * tile[1], MR: tile[0], NR: tile[1]}
		a, b := randView[float32](n, k, rng), randView[float32](n, k, rng)
		for _, op := range []opKind{opGemm, opSyrk, opSyr2k} {
			pc := &propCase[float32]{op: op, transB: op == opGemm, alpha: 1, beta: 0, a: a, b: b, c: randView[float32](n, n, rng)}
			want := pc.reference()
			for _, threads := range []int{2, 5} {
				for _, part := range []int{0, threads - 1} {
					label := fmt.Sprintf("%v tile %dx%d threads=%d part=%d", op, tile[0], tile[1], threads, part)
					ctx := NewContext()
					// SYR2K faults in its second pass, the one that mirrors.
					partHook = func(w, kOff int) {
						if w == part && kOff == prm.KC && (op != opSyr2k || ctx.f32.args.mirror) {
							var none []int
							_ = none[kOff]
						}
					}
					var err error
					within(t, 20*time.Second, label, func() { err = pc.run(ctx, pc.input(), threads, prm) })
					partHook = nil
					if err == nil {
						t.Fatalf("%s: the call succeeded", label)
					}
					for _, s := range []string{op.String(), fmt.Sprintf("m=%d n=%d k=%d", n, n, k), fmt.Sprintf("part %d of %d", part, threads), "index out of range"} {
						if !strings.Contains(err.Error(), s) {
							t.Errorf("%s: error %q does not name %q", label, err, s)
						}
					}
					got := pc.input()
					within(t, 20*time.Second, label+" next call", func() { err = pc.run(ctx, got, threads, prm) })
					if err != nil {
						t.Fatalf("%s: next call on the context: %v", label, err)
					}
					checkAgainst(t, pc, prm, got, want, 1e-4)
					ctx.Close()
				}
			}
		}
	}

	// The pooled entry point: the faulting call's context goes back to the
	// pool and the next caller gets a working one.
	am, bm, cm := randF32(n, k, rng), randF32(k, n, rng), mat.NewF32(n, n)
	partHook = func(w, kOff int) {
		if w == 1 {
			var none []int
			_ = none[w]
		}
	}
	var err error
	within(t, 20*time.Second, "pooled SGEMM", func() { err = SGEMM(false, false, 1, am, bm, 0, cm, 2) })
	partHook = nil
	if err == nil {
		t.Fatal("pooled SGEMM: the call succeeded")
	}
	want := mat.NewF32(n, n)
	NaiveSGEMM(false, false, 1, am, bm, 0, want)
	for i := 0; i < 4; i++ {
		within(t, 20*time.Second, "pooled SGEMM after the fault", func() { err = SGEMM(false, false, 1, am, bm, 0, cm, 2) })
		if err != nil {
			t.Fatal(err)
		}
		if d := cm.MaxAbsDiff(want); d > tolF32(k) {
			t.Fatalf("pooled SGEMM after the fault: diff %v", d)
		}
	}
}

// settleGoroutines returns the goroutine count once it has stopped falling:
// workers of teams closed by earlier tests may still be on their way out.
func settleGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * lingerBound)
		cur := runtime.NumGoroutine()
		if cur >= n {
			return cur
		}
		n = cur
	}
	return n
}

// TestTeamNoGoroutineLeak checks the workers' lifetime now that they poll
// before they park: a round leaves no job behind (the job references the
// Context and would keep it from being collected), Close lets every worker
// go within 20 linger bounds, and so does dropping an unclosed Context once
// the collector has run its cleanup.
func TestTeamNoGoroutineLeak(t *testing.T) {
	forcePath(t, forcePacked)
	rng := rand.New(rand.NewSource(82))
	a, b, c := randF32(64, 64, rng), randF32(64, 64, rng), mat.NewF32(64, 64)
	base := settleGoroutines()
	use := func() *Context {
		ctx := NewContext()
		for i := 0; i < 3; i++ {
			if err := ctx.SGEMM(false, false, 1, a, b, 0, c, 4); err != nil {
				t.Fatal(err)
			}
		}
		if got := runtime.NumGoroutine(); got < base+3 {
			t.Fatalf("expected 3 workers, goroutines %d -> %d", base, got)
		}
		if ctx.tm.st.job != nil {
			t.Fatal("the team kept the job after the round")
		}
		return ctx
	}
	back := func(what string, collect bool) {
		t.Helper()
		deadline := time.Now().Add(20 * lingerBound)
		for {
			if collect {
				runtime.GC()
			}
			got := runtime.NumGoroutine()
			if got <= base {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the team, after %v", what, got, base, 20*lingerBound)
			}
			time.Sleep(lingerBound / 4)
		}
	}
	use().Close()
	back("after Close", false)
	use() // dropped unclosed
	back("after dropping the Context and runtime.GC", true)
}
