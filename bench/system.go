package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"
)

// system is the system under test, the same for every workload: one
// deterministic artefact, trained, saved and loaded back.
type system struct {
	lib    *library
	trainS float64
	loadMs float64
}

// trainShapes is the artefact's training sample; the tests' smoke pass
// trains on smokeTrainShapes.
const (
	trainShapes      = 120
	smokeTrainShapes = 24
)

func buildSystem(dir string, shapes int) (*system, error) {
	t0 := time.Now()
	trained, err := trainArtefact(shapes)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	sys := &system{trainS: time.Since(t0).Seconds()}
	path := filepath.Join(dir, "artefact.json")
	if err := trained.Save(path); err != nil {
		return nil, fmt.Errorf("save artefact: %w", err)
	}
	t1 := time.Now()
	if sys.lib, err = loadArtefact(path); err != nil {
		return nil, fmt.Errorf("load artefact: %w", err)
	}
	sys.loadMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	return sys, nil
}

// workload is one set of inputs. prepare boots it on a fresh system up to
// and including its warm pass; verify checks outputs outside any timed
// interval; run drives it until the deadline, traced when trs is non-nil
// (one tracer per caller).
type workload interface {
	prepare(sys *system, seed int64) error
	verify(ck *checks)
	run(deadline time.Time, trs []*tracer) segment
	callers() int
	opsPerSample() int // operations behind one latency sample: a lap's calls, a round's requests, or 1
	classes() int      // sample i is of class i % classes(): halton_mid's shapes, else 1
	hitRate() float64  // the decision-cache hit rate the timed run must show, or -1
	close()
}

func (w *calls) callers() int     { return 1 }
func (w *calls) hitRate() float64 { return w.wantHitRate }

func (w *calls) opsPerSample() int {
	if w.perCall {
		return 1
	}
	return w.lapCalls
}

// classes: halton_mid's laps run the same shapes in the same order, so its
// per-call samples fall into one class per shape; cold_small never repeats
// a shape and hot_small's sample is the lap.
func (w *calls) classes() int {
	if w.perCall && w.stream == nil {
		return w.lapCalls
	}
	return 1
}

var workloadNames = []string{"hot_small", "cold_small", "halton_mid", "serve_predict", "serve_batch_measured"}

func newWorkload(name string, dir string) (workload, error) {
	switch name {
	case "hot_small", "cold_small", "halton_mid":
		return newCallsWorkload(name), nil
	case "serve_predict", "serve_batch_measured":
		return newServingWorkload(name, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// segment is what one driven interval produced.
type segment struct {
	ops, failed int64
	shed        int64         // 429 answers (serving workloads)
	busy        time.Duration // time the callers spent inside operations
	wall        time.Duration // serving workloads: the interval itself
	samples     []float64     // latency samples in µs, in the order taken
	flops       float64       // computed from shapes
	bytes       float64       // computed from shapes
}

// checks counts correctness checks; a failed one fails the run.
type checks struct {
	attempted, failed int64
	maxAbsErr         float64
	errs              []string
}

func (c *checks) note(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if len(c.errs) < 10 {
			c.errs = append(c.errs, err.Error())
		}
	}
}

// Raw JSON wire forms of the daemon, written out here so the benchmark
// speaks the wire format and nothing else.
type wireShape struct {
	M  int    `json:"m"`
	K  int    `json:"k"`
	N  int    `json:"n"`
	Op string `json:"op"`
}

type wireMeasured struct {
	wireShape
	Threads    int   `json:"threads"`
	MeasuredNs int64 `json:"measured_ns"`
}

func wireOf(q key) wireShape { return wireShape{q.m, q.k, q.n, q.op.String()} }

func predictBody(q key) []byte {
	blob, _ := json.Marshal(wireOf(q)) // a struct of ints and a string always encodes
	return blob
}

func batchBody(keys []key) []byte {
	shapes := make([]wireShape, len(keys))
	for i, q := range keys {
		shapes[i] = wireOf(q)
	}
	blob, _ := json.Marshal(map[string]any{"shapes": shapes})
	return blob
}

// post sends one request to the handler without a socket.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// engineCounters reads the shared engine's hit and miss counters the way an
// operator would: GET /stats.
func engineCounters(h http.Handler) (hits, misses int64, err error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var body struct {
		Engine struct {
			Hits   int64 `json:"cache_hits"`
			Misses int64 `json:"cache_misses"`
		} `json:"engine"`
	}
	if rec.Code != http.StatusOK {
		return 0, 0, fmt.Errorf("/stats: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		return 0, 0, fmt.Errorf("/stats: %w", err)
	}
	return body.Engine.Hits, body.Engine.Misses, nil
}

// checkParity asserts that one decision is the same through every front
// end: the engine, POST /predict, POST /batch and the facade's view of the
// shared cache (clamped to this machine, as the facade clamps).
func checkParity(ck *checks, lib *library, ref *engine, h http.Handler, keys []key) {
	want := make([]int, len(keys))
	for i, q := range keys {
		want[i] = predict(context.Background(), ref, q.op, q.m, q.k, q.n)
		var got struct {
			Threads int `json:"threads"`
		}
		rec := post(h, "/predict", predictBody(q))
		err := json.Unmarshal(rec.Body.Bytes(), &got)
		if err == nil && (rec.Code != http.StatusOK || got.Threads != want[i]) {
			err = fmt.Errorf("/predict %v %dx%dx%d: status %d, %d threads, engine decides %d", q.op, q.m, q.k, q.n, rec.Code, got.Threads, want[i])
		}
		ck.note(err)
		if got := lib.BLAS().LastChoice(q.op, q.m, q.k, q.n); got != clampThreads(want[i]) {
			ck.note(fmt.Errorf("facade sees %d threads for %v %dx%dx%d, engine decides %d", got, q.op, q.m, q.k, q.n, want[i]))
		} else {
			ck.note(nil)
		}
	}
	var got struct {
		Threads []int `json:"threads"`
	}
	rec := post(h, "/batch", batchBody(keys))
	err := json.Unmarshal(rec.Body.Bytes(), &got)
	if err == nil && (rec.Code != http.StatusOK || fmt.Sprint(got.Threads) != fmt.Sprint(want)) {
		err = fmt.Errorf("/batch: status %d, threads %v, engine decides %v", rec.Code, got.Threads, want)
	}
	ck.note(err)
}
