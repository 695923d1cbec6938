package adsala

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/trace"
)

// facadeCall is one facade call on fixed operands, with the canonical
// (op, m, k, n) its decision is cached under.
type facadeCall struct {
	name    string
	op      Op
	m, k, n int
	run     func(b *BLAS) error
}

// facadeCalls returns an SGEMM, DGEMM, SSYRK and SSYR2K call at one small-
// path shape each (m·n·k ≤ 8³: no packing, threads unread) and at one packed
// shape each, on seeded operands.
func facadeCalls() []facadeCall {
	rng := rand.New(rand.NewSource(36))
	f32 := func(r, c int) *MatrixF32 {
		x := NewMatrixF32(r, c)
		x.FillRandom(rng)
		return x
	}
	f64 := func(r, c int) *MatrixF64 {
		x := NewMatrixF64(r, c)
		x.FillRandom(rng)
		return x
	}
	var calls []facadeCall
	for _, sh := range []struct {
		kind    string
		m, k, n int
	}{{"small", 8, 8, 8}, {"packed", 16, 12, 16}} {
		m, k, n := sh.m, sh.k, sh.n
		sa, sb, sc := f32(m, k), f32(k, n), NewMatrixF32(m, n)
		da, db, dc := f64(m, k), f64(k, n), NewMatrixF64(m, n)
		ya, yc := f32(n, k), NewMatrixF32(n, n)
		za, zb, zc := f32(n, k), f32(n, k), NewMatrixF32(n, n)
		calls = append(calls,
			facadeCall{sh.kind + "/SGEMM", OpGEMM, m, k, n, func(b *BLAS) error { return b.SGEMM(false, false, 1, sa, sb, 0, sc) }},
			facadeCall{sh.kind + "/DGEMM", OpGEMM, m, k, n, func(b *BLAS) error { return b.DGEMM(false, false, 1, da, db, 0, dc) }},
			facadeCall{sh.kind + "/SSYRK", OpSYRK, n, k, n, func(b *BLAS) error { return b.SSYRK(false, 1, ya, 0, yc) }},
			facadeCall{sh.kind + "/SSYR2K", OpSYR2K, n, k, n, func(b *BLAS) error { return b.SSYR2K(false, 1, za, zb, 0, zc) }},
		)
	}
	return calls
}

// openRecorder opens a flight recorder under a temporary prefix, closed at
// cleanup.
func openRecorder(t *testing.T) (*trace.Recorder, string) {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	return rec, prefix
}

// TestFacadeZeroAlloc pins the README's claim at the facade itself: a
// cache-hit call — decision, pooled kernel, and the clock and record when
// something listens — allocates nothing, on the small path and the packed
// one, with no listener and with a recorder and a drift monitor attached.
func TestFacadeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	lib, _ := trainQuick(t)
	b := lib.BLAS()
	calls := facadeCalls()
	measure := func(t *testing.T) {
		for _, c := range calls {
			if err := c.run(b); err != nil { // the miss, and a warm pooled context
				t.Fatal(err)
			}
			var err error
			if n := testing.AllocsPerRun(100, func() { err = c.run(b) }); n != 0 || err != nil {
				t.Errorf("%s: cache-hit facade call allocates %.1f/op (err %v), want 0", c.name, n, err)
			}
		}
	}
	t.Run("unlistened", measure)
	t.Run("listened", func(t *testing.T) {
		rec, _ := openRecorder(t)
		b.Engine().SetRecorder(rec)
		b.Engine().SetDriftMonitor(drift.NewMonitor(drift.Config{}))
		defer b.Engine().SetRecorder(nil)
		defer b.Engine().SetDriftMonitor(nil)
		measure(t)
		if rec.Dropped() != 0 {
			t.Fatalf("recorder dropped %d records during the run", rec.Dropped())
		}
	})
}

// TestFacadeMeasuresWhatListens pins when a facade call is timed: whenever
// a recorder or a drift monitor is attached — either alone, and whenever it
// was attached — and never otherwise, without moving a decision or a
// cache counter.
func TestFacadeMeasuresWhatListens(t *testing.T) {
	lib, _ := trainQuick(t)
	calls := facadeCalls()

	t.Run("drift monitor alone", func(t *testing.T) {
		b := lib.BLAS()
		mon := drift.NewMonitor(drift.Config{})
		b.Engine().SetDriftMonitor(mon)
		defer b.Engine().SetDriftMonitor(nil)
		for _, c := range calls {
			if err := c.run(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := mon.Snapshot().Observed; got != int64(len(calls)) {
			t.Errorf("monitor observed %d facade calls, want %d", got, len(calls))
		}
	})

	t.Run("recorder attached after the BLAS", func(t *testing.T) {
		b := lib.BLAS()
		c := calls[len(calls)-1]
		if err := c.run(b); err != nil { // unlistened: decided, not measured
			t.Fatal(err)
		}
		rec, prefix := openRecorder(t)
		b.Engine().SetRecorder(rec)
		defer b.Engine().SetRecorder(nil)
		if err := c.run(b); err != nil {
			t.Fatal(err)
		}
		recs := capturedRecords(t, rec, prefix)
		if len(recs) != 2 || !recs[0].IsDecision() || recs[1].IsDecision() {
			t.Fatalf("captured %+v, want the call's decision then its measurement", recs)
		}
		dec, meas := recs[0], recs[1]
		if meas.Op != c.op || meas.M != int32(c.m) || meas.K != int32(c.k) || meas.N != int32(c.n) ||
			int(meas.Threads) != b.LastChoice(c.op, c.m, c.k, c.n) || meas.MeasuredNs <= 0 {
			t.Errorf("measurement %+v, want %v %dx%dx%d at the %d threads that ran, timed", meas, c.op, c.m, c.k, c.n, b.LastChoice(c.op, c.m, c.k, c.n))
		}
		if dec.Flags&trace.FlagCacheHit == 0 {
			t.Errorf("decision %+v is not the cache hit of a shape decided before the attach", dec)
		}
	})

	t.Run("detached equals unlistened", func(t *testing.T) {
		// Two libraries on one artefact: the same models, engines of their own.
		listened, plain := newLibrary(lib.inner).BLAS(), newLibrary(lib.inner).BLAS()
		rec, _ := openRecorder(t)
		listened.Engine().SetRecorder(rec)
		listened.Engine().SetDriftMonitor(drift.NewMonitor(drift.Config{}))
		for _, c := range calls {
			if err := c.run(listened); err != nil {
				t.Fatal(err)
			}
		}
		listened.Engine().SetRecorder(nil)
		listened.Engine().SetDriftMonitor(nil)
		for lap := 0; lap < 2; lap++ {
			for _, c := range calls {
				if err := c.run(listened); err != nil {
					t.Fatal(err)
				}
			}
		}
		for lap := 0; lap < 3; lap++ {
			for _, c := range calls {
				if err := c.run(plain); err != nil {
					t.Fatal(err)
				}
			}
		}
		lh, lm := listened.CacheStats()
		ph, pm := plain.CacheStats()
		if lh != ph || lm != pm {
			t.Errorf("listened then detached: %d hits / %d misses; unlistened: %d / %d", lh, lm, ph, pm)
		}
		for _, c := range calls {
			if got, want := listened.LastChoice(c.op, c.m, c.k, c.n), plain.LastChoice(c.op, c.m, c.k, c.n); got != want || got < 1 {
				t.Errorf("%s: listened facade ran %d threads, unlistened %d", c.name, got, want)
			}
		}
	})

	t.Run("clamp binds above one thread", func(t *testing.T) {
		atGOMAXPROCS(t, 2)
		b := decidesTwo(t, lib).BLAS()
		c := calls[len(calls)/2] // packed SGEMM
		if err := c.run(b); err != nil {
			t.Fatal(err)
		}
		if got := b.LastChoice(c.op, c.m, c.k, c.n); got != 2 {
			t.Fatalf("LastChoice = %d with no override at GOMAXPROCS 2, want the model's 2", got)
		}
		rec, prefix := openRecorder(t)
		b.Engine().SetRecorder(rec)
		defer b.Engine().SetRecorder(nil)
		b.SetMaxLocalThreads(1)
		if err := c.run(b); err != nil {
			t.Fatal(err)
		}
		recs := capturedRecords(t, rec, prefix)
		if len(recs) != 2 || recs[0].Threads != 2 || recs[1].IsDecision() || recs[1].Threads != 1 {
			t.Errorf("captured %+v, want the decision at 2 threads and the measurement at the 1 that ran", recs)
		}
		if got := b.LastChoice(c.op, c.m, c.k, c.n); got != 1 {
			t.Errorf("LastChoice = %d under SetMaxLocalThreads(1), want 1", got)
		}
	})
}

// decidesTwo returns a library whose GEMM model, the trained one, ranks the
// single candidate 2: every GEMM decision is two threads, so every call
// reads the clamp.
func decidesTwo(t *testing.T, trained *Library) *Library {
	t.Helper()
	inner := &core.Library{Platform: trained.Platform(), Candidates: []int{2}}
	if err := inner.SetModel(OpGEMM, trained.inner.ModelFor(OpGEMM)); err != nil {
		t.Fatal(err)
	}
	return newLibrary(inner)
}

// TestSetMaxLocalThreadsConcurrent: the override may change while calls run
// (a BLAS is safe for concurrent use). Every call executes one of the
// values it held; run under -race, a plain field would be reported.
func TestSetMaxLocalThreadsConcurrent(t *testing.T) {
	atGOMAXPROCS(t, 2)
	lib, _ := trainQuick(t)
	b := decidesTwo(t, lib).BLAS()
	c := facadeCalls()[4] // packed SGEMM
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.SetMaxLocalThreads(1 + i%2)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if err := c.run(b); err != nil {
			t.Error(err)
			break
		}
		if got := b.LastChoice(c.op, c.m, c.k, c.n); got != 1 && got != 2 {
			t.Errorf("LastChoice = %d while the override moves between 1 and 2", got)
			break
		}
	}
	close(stop)
	wg.Wait()
}
