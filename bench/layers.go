package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// micro times reps batches of n calls of f and returns the median
// nanoseconds per call. f receives a running index over all batches.
func micro(n, reps int, f func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			f(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerPass measures every module from outside with fixed-count loops over
// its public functions. It runs on a second load of the same artefact, so
// the numbers do not depend on which workload's run they ride in. quick
// divides the counts (the tests' smoke pass).
func layerPass(artefact, dir string, quick bool, out metrics) error {
	lib, err := loadArtefact(artefact)
	if err != nil {
		return err
	}
	n := func(count int) int {
		if quick {
			return max(8, count/50)
		}
		return count
	}
	const reps = 5
	ctx := context.Background()
	core := coreOf(sharedEngine(lib))
	hot := decisionKeys(7, 64)
	fresh := newColdStream(7)

	// serve.engine: one decision, hit and miss; a batch of 16, hit and miss.
	eng := privateEngine(lib)
	for _, q := range hot {
		predict(ctx, eng, q.op, q.m, q.k, q.n)
	}
	out.set("serve.engine.predict_hit_ns", micro(n(20000), reps, func(i int) {
		q := hot[i%len(hot)]
		predict(ctx, eng, q.op, q.m, q.k, q.n)
	}), reps)
	out.set("serve.engine.predict_miss_ns", micro(n(2000), reps, func(int) {
		q := fresh.next()
		predict(ctx, eng, q.op, q.m, q.k, q.n)
	}), reps)
	hitBatch := make([]engineShape, batchShapes)
	for i := range hitBatch {
		hitBatch[i] = engineShape{M: 100 + i, K: 100, N: 100}
	}
	threads := make([]int, batchShapes)
	predictBatch(ctx, eng, opGEMM, hitBatch, threads)
	out.set("serve.engine.batch16_hit_ns", micro(n(5000), reps, func(int) {
		predictBatch(ctx, eng, opGEMM, hitBatch, threads)
	}), reps)
	missBatches := make([]engineShape, n(200)*reps*batchShapes)
	for i := range missBatches {
		missBatches[i] = engineShape{M: 5000 + i, K: 100, N: 100}
	}
	out.set("serve.engine.batch16_miss_ns", micro(n(200), reps, func(i int) {
		predictBatch(ctx, eng, opGEMM, missBatches[i*batchShapes:(i+1)*batchShapes], threads)
	}), reps)

	// serve.engine.record_measured: nothing attached, flight recorder
	// attached, drift monitor attached — the cost-of-watching A/B rows.
	rec, err := openRecorder(filepath.Join(dir, fmt.Sprintf("layer-%d", time.Now().UnixNano())))
	if err != nil {
		return fmt.Errorf("open trace recorder: %w", err)
	}
	defer rec.Close()
	traced, drifting := privateEngine(lib), privateEngine(lib)
	traced.SetRecorder(rec)
	drifting.SetDriftMonitor(newMonitor())
	for _, row := range []struct {
		name string
		eng  *engine
	}{{"plain", eng}, {"traced", traced}, {"drift", drifting}} {
		out.set("serve.engine.record_measured_"+row.name+"_ns", micro(n(5000), reps, func(i int) {
			if row.eng == traced && i%n(5000) == 0 {
				rec.Flush() // keep the ring from filling: a dropped record is cheaper
			}
			q := hot[i%len(hot)]
			row.eng.RecordMeasured(q.op, q.m, q.k, q.n, 1, 50_000)
		}), reps)
	}
	traced.SetRecorder(nil)

	// trace, drift, obs: the hooks themselves.
	written := rec.BytesWritten()
	records := n(5000) * reps
	out.set("trace.record_ns", micro(n(5000), reps, func(i int) {
		if i%n(5000) == 0 {
			rec.Flush()
		}
		rec.Record(traceRecord{M: int32(i), K: 64, N: 64, Threads: 2, PredictedNs: 40_000})
	}), reps)
	rec.Flush()
	out.set("trace.bytes_per_record", float64(rec.BytesWritten()-written)/float64(records), records)
	mon := newMonitor()
	out.set("drift.observe_ns", micro(n(20000), reps, func(i int) {
		q := hot[i%len(hot)]
		mon.Observe(q.op, q.m, q.k, q.n, 40_000, 50_000)
	}), reps)
	hist := newHistogram()
	out.set("obs.histogram_observe_ns", micro(n(100000), reps, func(i int) {
		hist.Observe(int64(1000 + i))
	}), reps)

	// serve.cache: read side alone and under contention, write side with
	// eviction.
	cache := privateEngine(lib).Cache()
	for _, q := range hot {
		cache.Put(q.op, q.m, q.k, q.n, 2)
	}
	out.set("serve.cache.get_hit_ns", micro(n(50000), reps, func(i int) {
		q := hot[i%len(hot)]
		cache.Get(q.op, q.m, q.k, q.n)
	}), reps)
	out.set("serve.cache.get_hit_parallel_ns", micro(1, reps, func(int) {
		var wg sync.WaitGroup
		for g := 0; g < runtime.NumCPU(); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n(50000); i++ {
					q := hot[(i+g)%len(hot)]
					cache.Get(q.op, q.m, q.k, q.n)
				}
			}()
		}
		wg.Wait()
	})/float64(n(50000)), reps)
	for i := 0; i < cacheCapacity; i++ {
		cache.Put(opGEMM, 9000+i, 9, 9, 1)
	}
	out.set("serve.cache.put_evict_ns", micro(n(20000), reps, func(i int) {
		cache.Put(opGEMM, 20000+i, 9, 9, 1)
	}), reps)

	// core and features: ranking all candidates, one candidate, one row.
	scratch := core.NewScratch()
	out.set("core.candidates", float64(len(core.Candidates)), 0)
	out.set("core.rank_ns", micro(n(3000), reps, func(i int) {
		q := hot[i%len(hot)]
		core.RankOpInto(q.op, q.m, q.k, q.n, scratch, nil)
	}), reps)
	before := mallocs()
	for i := 0; i < n(1000); i++ {
		core.RankOpInto(opGEMM, 64+i, 64, 64, scratch, nil)
	}
	out.set("core.rank_allocs", float64(mallocs()-before)/float64(n(1000)), n(1000))
	out.set("core.predict_one_ns", micro(n(20000), reps, func(i int) {
		q := hot[i%len(hot)]
		core.PredictOpSecondsInto(q.op, q.m, q.k, q.n, 2, scratch)
	}), reps)
	row := make([]float64, featureColumns())
	out.set("features.row_into_ns", micro(n(200000), reps, func(i int) {
		featureRowInto(64+i%64, 64, 64, 2, row)
	}), reps)

	kernelLayer(lib, quick, out)
	return serverLayer(lib, quick, out)
}

// kernelLayer measures internal/blas on an owned context: the tiny-call
// floor, the rate of each kernel at a fixed mid-size shape, and how well
// SGEMM scales to every CPU.
func kernelLayer(lib *library, quick bool, out metrics) {
	rng := rand.New(rand.NewSource(1))
	ctx := newKernelCtx()
	defer ctx.Close()
	tmax := runtime.GOMAXPROCS(0)
	tiny := newCallItem(key{opGEMM, 8, 8, 8}, rng)
	count, reps, size := 20000, 5, 384
	if quick {
		count, reps, size = 400, 1, 96
	}
	out.set("blas.ctx_sgemm_tiny_ns", micro(count, reps, func(int) { direct(ctx, &tiny, 1) }), reps)

	// adsala: what the facade adds to the same call on an owned context.
	blas := lib.BLAS()
	viaFacade(blas, &tiny)
	threads := blas.LastChoice(opGEMM, 8, 8, 8)
	var viaLaps, directLaps []float64
	for r := 0; r < 2*reps; r++ {
		viaLaps = append(viaLaps, micro(count/10, 1, func(int) { viaFacade(blas, &tiny) }))
		directLaps = append(directLaps, micro(count/10, 1, func(int) { direct(ctx, &tiny, threads) }))
	}
	out.set("adsala.facade_overhead_ns", median(viaLaps)-median(directLaps), 2*reps)

	gflops := func(it *callItem, threads int) float64 {
		return it.flops() / micro(1, reps, func(int) { direct(ctx, it, threads) })
	}
	square := key{opGEMM, size, size, size}
	gemm := newCallItem(square, rng)
	t1 := gflops(&gemm, 1)
	tm := gflops(&gemm, tmax)
	out.set("blas.sgemm_t1_gflops", t1, reps)
	out.set("blas.sgemm_tmax_gflops", tm, reps)
	out.set("blas.scale_eff_tmax", tm/(t1*float64(tmax)), reps)
	syrk := newCallItem(key{opSYRK, size, size, size}, rng)
	out.set("blas.ssyrk_t1_gflops", gflops(&syrk, 1), reps)
	syr2k := newCallItem(key{opSYR2K, size, size, size}, rng)
	out.set("blas.ssyr2k_t1_gflops", gflops(&syr2k, 1), reps)
	a, b, c := newMatrixF64(size, size), newMatrixF64(size, size), newMatrixF64(size, size)
	a.FillRandom(rng)
	b.FillRandom(rng)
	out.set("blas.dgemm_t1_gflops", square.flops()/micro(1, reps, func(int) {
		ctx.DGEMM(false, false, 1, a, b, 0, c, 1)
	}), reps)
}

// serverLayer measures the daemon's handlers on a recorder (no socket), the
// codec share of a /predict, the cost of a metrics scrape, and — over one
// loopback connection — what the transport and client add to a round trip.
func serverLayer(lib *library, quick bool, out metrics) error {
	const reps = 5
	count := 2000
	if quick {
		count = 40
	}
	h := daemon(lib)
	keys := decisionKeys(9, batchShapes)
	one := predictBody(keys[0])
	batch := batchBody(keys)
	records := make([]wireMeasured, len(keys))
	for i, q := range keys {
		records[i] = wireMeasured{wireOf(q), 2, 50_000}
	}
	measured, _ := json.Marshal(map[string]any{"records": records})
	post(h, "/batch", batch) // decide the keys once: the handlers below serve hits
	handler := micro(count, reps, func(int) { post(h, "/predict", one) })
	out.set("serve.server.predict_handler_ns", handler, reps)
	out.set("serve.server.batch16_handler_ns", micro(count, reps, func(int) { post(h, "/batch", batch) }), reps)
	out.set("serve.server.measured16_handler_ns", micro(count, reps, func(int) { post(h, "/measured", measured) }), reps)
	q := keys[0]
	eng := sharedEngine(lib)
	decide := micro(count, reps, func(int) { predict(context.Background(), eng, q.op, q.m, q.k, q.n) })
	out.set("serve.server.codec_ns", handler-decide, reps)
	out.set("serve.server.metrics_scrape_ms", micro(max(2, count/100), reps, func(int) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	})/1e6, reps)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	w := &serving{url: "http://" + ln.Addr().String(), clients: []*http.Client{{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}}
	rq := request{reqPredict, one, keys[:1], []int{predict(context.Background(), eng, q.op, q.m, q.k, q.n)}}
	var buf bytes.Buffer
	var failed error
	roundtrip := func(int) {
		if _, err := w.do(context.Background(), 0, &rq, &buf, false); err != nil {
			failed = err
		}
	}
	roundtrip(0)
	before := mallocs()
	trip := micro(count, reps, roundtrip)
	out.set("serve.client.allocs_per_req", float64(mallocs()-before)/float64(count*reps), count*reps)
	out.set("serve.client.transport_ns", trip-handler, reps)
	_ = srv.Close() // nothing in flight: the loop above is closed-loop and done
	<-served
	w.clients[0].CloseIdleConnections()
	return failed
}

// threeWay runs every item, for about budget and at least three times,
// through the facade (model-selected threads), directly at GOMAXPROCS
// threads and directly at one thread, interleaved, and reports the paper's headline with selection overhead
// included, the regret against the better of the two fixed choices, and how
// often one thread was selected.
func threeWay(blas *facade, items []callItem, budget time.Duration, out metrics) error {
	ctx := newKernelCtx()
	defer ctx.Close()
	tmax := runtime.GOMAXPROCS(0)
	via, atMax, atOne := make([][]float64, len(items)), make([][]float64, len(items)), make([][]float64, len(items))
	timed := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(time.Since(t0).Nanoseconds()), err
	}
	deadline := time.Now().Add(budget)
	for r := 0; r < 3 || time.Now().Before(deadline); r++ {
		for i := range items {
			it := &items[i]
			for _, way := range []struct {
				dst *[]float64
				f   func() error
			}{
				{&via[i], func() error { return viaFacade(blas, it) }},
				{&atMax[i], func() error { return direct(ctx, it, tmax) }},
				{&atOne[i], func() error { return direct(ctx, it, 1) }},
			} {
				ns, err := timed(way.f)
				if err != nil {
					return err
				}
				*way.dst = append(*way.dst, ns)
			}
		}
	}
	var ratios []float64
	var sumVia, sumBest float64
	selectedOne := 0
	for i := range items {
		v, m, o := median(via[i]), median(atMax[i]), median(atOne[i])
		ratios = append(ratios, m/v)
		sumVia += v
		sumBest += min(m, o)
		if blas.LastChoice(items[i].op, items[i].m, items[i].k, items[i].n) == 1 {
			selectedOne++
		}
	}
	out.set("adsala.speedup_vs_max", geomean(ratios), len(items))
	out.set("adsala.regret_vs_oracle", sumVia/sumBest, len(items))
	out.set("adsala.selected_t1_share", float64(selectedOne)/float64(len(items)), len(items))
	return nil
}
