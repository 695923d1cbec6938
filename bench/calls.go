package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"
)

// callItem is one BLAS call's operands. GEMM uses a (m×k), b (k×n) and
// c (m×n); SYRK a (n×k) and c (n×n); SYR2K a and b (n×k) and c (n×n).
type callItem struct {
	key
	a, b, c *matrixF32
}

func newCallItem(q key, rng *rand.Rand) callItem {
	it := callItem{key: q}
	if q.op == opGEMM {
		it.a, it.b, it.c = newMatrixF32(q.m, q.k), newMatrixF32(q.k, q.n), newMatrixF32(q.m, q.n)
	} else {
		it.a, it.b, it.c = newMatrixF32(q.m, q.k), newMatrixF32(q.m, q.k), newMatrixF32(q.m, q.m)
	}
	it.a.FillRandom(rng)
	it.b.FillRandom(rng)
	return it
}

// reshape points the item's matrices at the leading part of their backing
// arrays with q's dimensions, so a stream of shapes needs no allocation.
func (it *callItem) reshape(q key) {
	it.key = q
	set := func(m *matrixF32, rows, cols int) {
		m.Rows, m.Cols, m.Stride, m.Data = rows, cols, cols, m.Data[:rows*cols]
	}
	if q.op == opGEMM {
		set(it.a, q.m, q.k)
		set(it.b, q.k, q.n)
		set(it.c, q.m, q.n)
	} else {
		set(it.a, q.m, q.k)
		set(it.b, q.m, q.k)
		set(it.c, q.m, q.m)
	}
}

func viaFacade(f *facade, it *callItem) error {
	switch it.op {
	case opSYRK:
		return f.SSYRK(false, 1, it.a, 0, it.c)
	case opSYR2K:
		return f.SSYR2K(false, 1, it.a, it.b, 0, it.c)
	}
	return f.SGEMM(false, false, 1, it.a, it.b, 0, it.c)
}

func direct(ctx *kernelCtx, it *callItem, threads int) error {
	switch it.op {
	case opSYRK:
		return ctx.SSYRK(false, 1, it.a, 0, it.c, threads)
	case opSYR2K:
		return ctx.SSYR2K(false, 1, it.a, it.b, 0, it.c, threads)
	}
	return ctx.SGEMM(false, false, 1, it.a, it.b, 0, it.c, threads)
}

// clampThreads is the facade's clamp of a decision to what can run here.
func clampThreads(threads int) int {
	return max(1, min(threads, runtime.GOMAXPROCS(0)))
}

// f32Tolerance is the accepted |kernel − naive| as a share of the largest
// reference element (plus one), in single precision — the only precision
// the workloads run.
const f32Tolerance = 1e-4

// checkAgainstNaive recomputes the item's result with the reference kernel
// and returns the largest absolute error, or an error when it is outside
// tolerance or a symmetric result is not exactly symmetric. it.c must hold
// the kernel's result.
func checkAgainstNaive(it *callItem) (float64, error) {
	ref := newMatrixF32(it.c.Rows, it.c.Cols)
	switch it.op {
	case opSYRK:
		naiveSSYRK(it.a, ref)
	case opSYR2K:
		naiveSSYR2K(it.a, it.b, ref)
	default:
		naiveSGEMM(it.a, it.b, ref)
	}
	var scale float64
	for _, v := range ref.Data {
		scale = math.Max(scale, math.Abs(float64(v)))
	}
	diff := it.c.MaxAbsDiff(ref)
	if diff > f32Tolerance*(scale+1) {
		return diff, fmt.Errorf("%v %dx%dx%d: |kernel-naive| = %g beyond tolerance", it.op, it.m, it.k, it.n, diff)
	}
	if it.op != opGEMM {
		for i := 0; i < it.c.Rows; i++ {
			for j := 0; j < i; j++ {
				if it.c.At(i, j) != it.c.At(j, i) {
					return diff, fmt.Errorf("%v %dx%d: result not symmetric at (%d,%d)", it.op, it.m, it.k, i, j)
				}
			}
		}
	}
	return diff, nil
}

// calls is a workload of in-process BLAS calls through the facade: either
// laps over a fixed item list (hot_small, halton_mid) or laps over a
// never-repeating stream of small shapes (cold_small).
type calls struct {
	name     string
	lapCalls int
	// perCall times every call on its own; otherwise a lap is one sample
	// (hot_small's calls are too short to carry two clock reads each).
	perCall bool
	// wantHitRate is the decision-cache hit rate the timed run must show
	// exactly, or -1.
	wantHitRate float64

	sys    *system
	blas   *facade
	eng    *engine // the library's shared engine, the one the facade uses
	ctx    *kernelCtx
	items  []callItem
	stream *coldStream
	keys   []key // cold_small: the current lap's shapes
	cold   callItem

	lapFlops, lapBytes float64

	// For re-measuring a miss's inner layers in the traced run.
	scratch *rankScratch
	row     []float64
	side    *engine
}

func newCallsWorkload(name string) *calls {
	switch name {
	case "hot_small":
		return &calls{name: name, lapCalls: 256, wantHitRate: 1}
	case "cold_small":
		return &calls{name: name, lapCalls: 256, perCall: true, wantHitRate: 0}
	}
	return &calls{name: name, lapCalls: haltonCount, perCall: true, wantHitRate: -1}
}

// haltonCount is halton_mid's shape count (24 GEMM, 12 SYRK, 12 SYR2K).
const haltonCount = 48

func (w *calls) prepare(sys *system, seed int64) error {
	w.sys, w.blas, w.eng = sys, sys.lib.BLAS(), sharedEngine(sys.lib)
	w.ctx = newKernelCtx()
	rng := rand.New(rand.NewSource(seed))
	var shapes []key
	switch w.name {
	case "hot_small":
		shapes = hotShapes()
	case "halton_mid":
		shapes = haltonShapes(seed, haltonCount)
	default:
		w.stream = newColdStream(seed)
		w.keys = make([]key, w.lapCalls)
		w.cold = newCallItem(key{opGEMM, coldHi, coldHi, coldHi}, rng)
	}
	for _, q := range shapes {
		w.items = append(w.items, newCallItem(q, rng))
	}
	w.scratch = coreOf(w.eng).NewScratch()
	w.row = make([]float64, featureColumns())
	w.side = privateEngine(sys.lib)
	// Warm pass: one lap, so caches, pooled kernel contexts and worker
	// teams exist before anything is timed.
	w.nextLap()
	for i := 0; i < w.lapCalls; i++ {
		if err := viaFacade(w.blas, w.at(i)); err != nil {
			return err
		}
	}
	return nil
}

func (w *calls) close() { w.ctx.Close() }

// nextLap readies the next lap's shapes, outside any timed interval.
func (w *calls) nextLap() {
	if w.stream == nil {
		if w.lapFlops == 0 {
			for i := 0; i < w.lapCalls; i++ {
				w.lapFlops += w.at(i).flops()
				w.lapBytes += w.at(i).bytes()
			}
		}
		return
	}
	w.lapFlops, w.lapBytes = 0, 0
	for i := range w.keys {
		w.keys[i] = w.stream.next()
		w.lapFlops += w.keys[i].flops()
		w.lapBytes += w.keys[i].bytes()
	}
}

// at returns the i-th call of the current lap.
func (w *calls) at(i int) *callItem {
	if w.stream == nil {
		return &w.items[i%len(w.items)]
	}
	w.cold.reshape(w.keys[i])
	return &w.cold
}

// parityKeys is the sample whose decision must be the same through every
// front end. cold_small samples half a period ahead of its stream, so the
// sample's cache entries are long evicted when the stream reaches them.
func (w *calls) parityKeys() []key {
	if w.stream == nil {
		out := make([]key, len(w.items))
		for i := range w.items {
			out[i] = w.items[i].key
		}
		return out
	}
	ahead := *w.stream
	ahead.pos = (ahead.pos + coldSpace/2*ahead.step) % coldSpace
	out := make([]key, 64)
	for i := range out {
		out[i] = ahead.next()
	}
	return out
}

// verify runs one lap through the facade and checks every result against
// the naive kernel, then checks decision parity.
func (w *calls) verify(ck *checks) {
	w.nextLap()
	distinct := w.lapCalls
	if w.stream == nil {
		distinct = len(w.items)
	}
	for i := 0; i < distinct; i++ {
		it := w.at(i)
		err := viaFacade(w.blas, it)
		if err == nil {
			var diff float64
			diff, err = checkAgainstNaive(it)
			ck.maxAbsErr = math.Max(ck.maxAbsErr, diff)
		}
		ck.note(err)
		want := clampThreads(predict(context.Background(), w.side, it.op, it.m, it.k, it.n))
		if got := w.blas.LastChoice(it.op, it.m, it.k, it.n); got != want {
			ck.note(fmt.Errorf("%v %dx%dx%d: facade ran %d threads, engine decides %d", it.op, it.m, it.k, it.n, got, want))
		} else {
			ck.note(nil)
		}
	}
	checkParity(ck, w.sys.lib, w.side, daemon(w.sys.lib), w.parityKeys())
}

func (w *calls) run(deadline time.Time, trs []*tracer) segment {
	if trs != nil {
		return w.runTraced(deadline, trs[0])
	}
	var seg segment
	for time.Now().Before(deadline) {
		w.nextLap()
		t0 := time.Now()
		last := t0
		for i := 0; i < w.lapCalls; i++ {
			if err := viaFacade(w.blas, w.at(i)); err != nil {
				seg.failed++
			}
			if w.perCall {
				now := time.Now()
				seg.samples = append(seg.samples, float64(now.Sub(last).Nanoseconds())/1e3)
				last = now
			}
		}
		dt := time.Since(t0)
		if !w.perCall {
			seg.samples = append(seg.samples, float64(dt.Nanoseconds())/1e3/float64(w.lapCalls))
		}
		seg.busy += dt
		seg.ops += int64(w.lapCalls)
		seg.flops += w.lapFlops
		seg.bytes += w.lapBytes
	}
	return seg
}

// runTraced replays the facade's own sequence through the public layer
// calls, one timestamp per boundary: decision, kernel on an owned context
// at the decided thread count, measurement record. On a cache miss the
// decision's inner layers — ranking, the feature rows inside it, the cache
// insert with eviction — are timed again for the same shape right after the
// call and laid into the decision span as children.
func (w *calls) runTraced(deadline time.Time, tr *tracer) segment {
	var seg segment
	ctx := context.Background()
	for time.Now().Before(deadline) && tr.room(7*w.lapCalls) {
		w.nextLap()
		var lap int64
		for i := 0; i < w.lapCalls; i++ {
			it := w.at(i)
			miss := w.blas.LastChoice(it.op, it.m, it.k, it.n) == 0
			t0 := tr.now()
			threads := clampThreads(predict(ctx, w.eng, it.op, it.m, it.k, it.n))
			t1 := tr.now()
			err := direct(w.ctx, it, threads)
			t2 := tr.now()
			w.eng.RecordMeasured(it.op, it.m, it.k, it.n, threads, t2-t1)
			t3 := tr.now()
			op := int(seg.ops)
			root := tr.add(spanCall, -1, op, t0, t3)
			dec := tr.add(spanPredict, root, op, t0, t1)
			tr.add(spanKernel, root, op, t1, t2)
			tr.add(spanRecord, root, op, t2, t3)
			if miss {
				if op%remeasureEvery == 0 {
					w.remeasureMiss(tr, dec, op, t0, it.key, threads)
				} else {
					tr.spans[root].partial = true
				}
			}
			if err != nil {
				seg.failed++
			}
			seg.ops++
			lap += t3 - t0
			if w.perCall {
				seg.samples = append(seg.samples, float64(t3-t0)/1e3)
			}
		}
		seg.busy += time.Duration(lap)
		if !w.perCall {
			seg.samples = append(seg.samples, float64(lap)/1e3/float64(w.lapCalls))
		}
		seg.flops += w.lapFlops
		seg.bytes += w.lapBytes
	}
	return seg
}

// remeasureEvery: a miss's inner layers are timed again for one call in
// this many. Ranking a second time leaves the caches to the model, and the
// call after it reads 3 µs slower; re-measuring every call made the traced
// run 13 % slower than the untraced one on cold_small.
const remeasureEvery = 8

func (w *calls) remeasureMiss(tr *tracer, dec, op int, at int64, q key, threads int) {
	lib := coreOf(w.eng)
	r0 := tr.now()
	lib.RankOpInto(q.op, q.m, q.k, q.n, w.scratch, nil)
	r1 := tr.now()
	for _, cand := range lib.Candidates {
		featureRowInto(q.m, q.k, q.n, cand, w.row)
	}
	r2 := tr.now()
	w.side.Cache().Put(q.op, q.m, q.k, q.n, threads)
	r3 := tr.now()
	rank := tr.add(spanRank, dec, op, at, at+r1-r0)
	tr.add(spanRow, rank, op, at, at+r2-r1)
	tr.add(spanPut, dec, op, at+r1-r0, at+r1-r0+r3-r2)
}
