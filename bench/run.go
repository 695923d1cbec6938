package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runConfig is one process run: one workload, one seed, traced or not.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// smoke shrinks everything (one set-up on a small artefact, reduced
	// layer-pass counts) so the tests can check the output's shape fast.
	smoke bool
	out   string // directory for the trace file (and -workload all's set file), or ""
}

// result is what a run reports; its JSON form is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`

	env     environment
	callers int
	errs    []string
}

// setupRuns is how often an untraced run sets the system up; setup_s is the
// median. A traced run reports no set-up time and sets up once.
const setupRuns = 3

func runOne(cfg runConfig) (*result, error) {
	tmp, err := os.MkdirTemp(".", ".bench-tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	setups, shapes := setupRuns, trainShapes
	if cfg.traced {
		setups = 1
	}
	if cfg.smoke {
		setups, shapes = 1, smokeTrainShapes
	}
	var (
		w                          workload
		sys                        *system
		setupS, trainS, loadMs, wS []float64
	)
	for s := 0; s < setups; s++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup%d", s))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if sys, err = buildSystem(dir, shapes); err != nil {
			return nil, err
		}
		if w, err = newWorkload(cfg.workload, dir); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := w.prepare(sys, cfg.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		wS = append(wS, time.Since(t1).Seconds())
		trainS, loadMs = append(trainS, sys.trainS), append(loadMs, sys.loadMs)
	}
	defer w.close()

	ck := &checks{}
	w.verify(ck)
	stats := daemon(sys.lib) // a second view of the shared engine, for /stats
	res := &result{Metrics: metrics{}, env: readEnvironment(), callers: w.callers()}
	budget := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.traced {
		seg, rate, _, err := driven(w, stats, budget, nil)
		if err != nil {
			return nil, err
		}
		checkHitRate(ck, w, rate)
		res.Metrics.set("op_p10_us", typical(seg.samples, w.classes()), len(seg.samples))
		res.Metrics.set("peak_rss_mb", peakRSSMB(), 1)
		res.Metrics.set("setup_s", median(setupS), len(setupS))
		res.finish(ck, seg)
		return res, nil
	}

	// Traced run: an untraced reference segment, the traced segment, then
	// the fixed-count layer pass.
	ref, rate, allocs, err := driven(w, stats, budget/4, nil)
	if err != nil {
		return nil, err
	}
	checkHitRate(ck, w, rate)
	base := time.Now()
	tracers := make([]*tracer, w.callers())
	for i := range tracers {
		tracers[i] = newTracer(base)
	}
	seg, _, _, err := driven(w, stats, budget*35/100, tracers)
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	for _, p := range perLayer {
		m.set(p.name, 0, 0)
	}
	untraced := typical(ref.samples, w.classes())
	m.set("bench.trace_overhead_pct", 100*(typical(seg.samples, w.classes())-untraced)/untraced, len(seg.samples))
	var perOp []float64
	var byName [numSpans][]float64
	var perSample []float64
	for _, tr := range tracers {
		names, ops := layerTimes(tr.spans)
		perOp = append(perOp, ops...)
		perSample = append(perSample, groupMeans(ops, w.opsPerSample())...)
		for i := range names {
			byName[i] = append(byName[i], names[i]...)
		}
	}
	m.set("bench.layers_sum_ratio", typical(perSample, w.classes())/1e3/untraced, len(perSample))
	m.set("bench.op_p50_us", median(ref.samples), len(ref.samples))
	for i, xs := range byName {
		m.set("self."+spanNames[i]+"_ns", median(xs), len(xs))
	}
	m.set("bench.allocs_per_op", allocs, int(ref.ops))
	m.set("bench.ops_per_s", ref.rate(), int(ref.ops))
	m.set("bench.work_gflops", ref.flops/float64(ref.busy.Nanoseconds()), int(ref.ops))
	sort.Float64s(perOp)
	pct, value := tail(perOp)
	m.set("bench.op_tail_us", value/1e3, len(perOp))
	m.set("bench.op_tail_pct", pct, len(perOp))
	m.set("serve.engine.hit_rate", rate, int(ref.ops))
	m.set("serve.engine.warmup_s", median(wS), len(wS))
	m.set("serve.server.shed_total", float64(ref.shed+seg.shed), 0)
	if sw, ok := w.(*serving); ok {
		m.set("trace.dropped_total", float64(sw.dropped()), 0)
	}
	m.set("blas.flops_computed", ref.flops, int(ref.ops))
	m.set("blas.bytes_computed", ref.bytes, int(ref.ops))
	if ref.bytes > 0 {
		m.set("blas.ops_per_byte", ref.flops/ref.bytes, int(ref.ops))
	}
	m.set("blas.max_abs_err", ck.maxAbsErr, int(ck.attempted))
	m.set("adsala.train_s", median(trainS), len(trainS))
	m.set("adsala.load_ms", median(loadMs), len(loadMs))

	artefact := filepath.Join(tmp, fmt.Sprintf("setup%d", setups-1), "artefact.json")
	if err := layerPass(artefact, tmp, cfg.smoke, m); err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	if err := headline(w, sys, cfg, budget/4, m); err != nil {
		return nil, fmt.Errorf("three-way pass: %w", err)
	}
	seg.ops += ref.ops
	seg.failed += ref.failed
	res.finish(ck, seg)
	if cfg.out != "" {
		if err := writeTrace(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), tracers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// headline runs the three-way pass for about budget: halton_mid on its own
// 48 shapes, every other workload on a 12-shape sample of the same domain.
func headline(w workload, sys *system, cfg runConfig, budget time.Duration, m metrics) error {
	if cw, ok := w.(*calls); ok && cw.name == "halton_mid" {
		return threeWay(cw.blas, cw.items, budget, m)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var items []callItem
	for _, q := range haltonShapes(cfg.seed, haltonCount/4) {
		items = append(items, newCallItem(q, rng))
	}
	return threeWay(sys.lib.BLAS(), items, budget, m)
}

// driven runs one segment and returns it with the decision-cache hit rate
// and the allocations per operation over it.
func driven(w workload, stats http.Handler, budget time.Duration, trs []*tracer) (seg segment, hitRate, allocsPerOp float64, err error) {
	h0, m0, err := engineCounters(stats)
	if err != nil {
		return seg, 0, 0, err
	}
	a0 := mallocs()
	seg = w.run(time.Now().Add(budget), trs)
	a1 := mallocs()
	h1, m1, err := engineCounters(stats)
	if err != nil {
		return seg, 0, 0, err
	}
	if seg.ops == 0 {
		return seg, 0, 0, fmt.Errorf("no operation completed in %v", budget)
	}
	if total := h1 - h0 + m1 - m0; total > 0 {
		hitRate = float64(h1-h0) / float64(total)
	}
	return seg, hitRate, float64(a1-a0) / float64(seg.ops), nil
}

func checkHitRate(ck *checks, w workload, got float64) {
	if want := w.hitRate(); want >= 0 {
		var err error
		if got != want {
			err = fmt.Errorf("decision-cache hit rate %g over the timed run, want exactly %g", got, want)
		}
		ck.note(err)
	}
}

// rate is completed correct operations per second: of the time spent inside
// operations for the single in-process caller, of the interval for the
// concurrent clients.
func (s segment) rate() float64 {
	d := s.wall
	if d == 0 {
		d = s.busy
	}
	return float64(s.ops-s.failed) / d.Seconds()
}

func (r *result) finish(ck *checks, seg segment) {
	r.Attempted = ck.attempted + seg.ops
	r.Failed = ck.failed + seg.failed
	r.Correct = r.Failed == 0
	r.errs = ck.errs
}
