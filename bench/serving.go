package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Request kinds of the serving workloads.
const (
	reqPredict = iota
	reqBatch
	reqMeasured
)

var reqPaths = [...]string{"/predict", "/batch", "/measured"}

// request is one pre-encoded request with the answer it must get.
type request struct {
	kind int
	body []byte
	keys []key
	want []int // expected thread counts (predict, batch) or nil
}

// Working-set sizes, chosen against the 4096-entry decision cache.
const (
	predictSetPerOp = 512  // serve_predict: 1536 keys, all fit: hits
	batchShapes     = 16   // shapes per /batch and records per /measured
	batchDistinct   = 14   // the last two shapes of a batch repeat its first two (dedup)
	batchCount      = 1024 // serve_batch_measured: 14 336 distinct keys, 3.5× the cache
	batchesPerRound = 4    // /batch requests before each /measured
)

// serving is a workload of HTTP requests against a loopback daemon, driven
// closed-loop by one client per CPU.
type serving struct {
	name     string
	dir      string
	measured bool // serve_batch_measured: trace recorder and drift monitor attached

	sys     *system
	handler *spanWrapper
	server  *http.Server
	served  chan error
	url     string
	clients []*http.Client
	ref     *engine // private engine: expected decisions, re-measured layers
	rec     []*recorder
	reqs    []request // predict: one per key; batch: batchCount batches then their measured twins
	seed    int64
}

func newServingWorkload(name, dir string) *serving {
	return &serving{name: name, dir: dir, measured: name == "serve_batch_measured"}
}

func (w *serving) callers() int { return len(w.clients) }
func (w *serving) classes() int { return 1 }

// opsPerSample: a /predict request is a sample of its own; the batch
// workload's sample is one round — four /batch and the /measured report —
// so the write path is inside the latency figure.
func (w *serving) opsPerSample() int {
	if w.measured {
		return batchesPerRound + 1
	}
	return 1
}

// hitRate: serve_predict's working set fits the cache; the batch workload's
// hit rate depends on the seeded draw and is only reported.
func (w *serving) hitRate() float64 {
	if w.measured {
		return -1
	}
	return 1
}

// spanWrapper is the benchmark-owned wrapper around the daemon's handler:
// for a request carrying X-Bench-Span (the client's index) it hands the
// handler's start and end times back to that client.
type spanWrapper struct {
	inner http.Handler
	base  time.Time
	slots []chan [2]int64
}

func (h *spanWrapper) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get("X-Bench-Span")
	if v == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	t0 := int64(time.Since(h.base))
	h.inner.ServeHTTP(w, r)
	t1 := int64(time.Since(h.base))
	if c, err := strconv.Atoi(v); err == nil && c >= 0 && c < len(h.slots) {
		h.slots[c] <- [2]int64{t0, t1}
	}
}

func (w *serving) prepare(sys *system, seed int64) error {
	w.sys, w.seed = sys, seed
	nclients := runtime.NumCPU()
	w.ref = privateEngine(sys.lib)
	if w.measured {
		for i, eng := range []*engine{sharedEngine(sys.lib), w.ref} {
			rec, err := openRecorder(filepath.Join(w.dir, fmt.Sprintf("flight%d-%d", i, time.Now().UnixNano())))
			if err != nil {
				return fmt.Errorf("open trace recorder: %w", err)
			}
			w.rec = append(w.rec, rec)
			eng.SetRecorder(rec)
			eng.SetDriftMonitor(newMonitor())
		}
	}
	w.handler = &spanWrapper{inner: daemon(sys.lib), slots: make([]chan [2]int64, nclients)}
	for i := range w.handler.slots {
		// One request is outstanding per client, so one slot suffices.
		w.handler.slots[i] = make(chan [2]int64, 1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.url = "http://" + ln.Addr().String()
	w.server = &http.Server{Handler: w.handler}
	w.served = make(chan error, 1)
	go func() { w.served <- w.server.Serve(ln) }()
	for i := 0; i < nclients; i++ {
		w.clients = append(w.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	w.buildRequests()
	return w.warm()
}

// buildRequests encodes every request once and computes, through the
// private engine, the decision each must return.
func (w *serving) buildRequests() {
	ctx := context.Background()
	decide := func(q key) int { return predict(ctx, w.ref, q.op, q.m, q.k, q.n) }
	if !w.measured {
		for _, q := range decisionKeys(w.seed, predictSetPerOp*len(allOps)) {
			w.reqs = append(w.reqs, request{reqPredict, predictBody(q), []key{q}, []int{decide(q)}})
		}
		return
	}
	rng := rand.New(rand.NewSource(w.seed + 1))
	keys := decisionKeys(w.seed, batchCount*batchDistinct)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var reports []request
	for b := 0; b < batchCount; b++ {
		batch := append([]key(nil), keys[b*batchDistinct:(b+1)*batchDistinct]...)
		batch = append(batch, batch[:batchShapes-batchDistinct]...)
		want := make([]int, len(batch))
		records := make([]wireMeasured, len(batch))
		for i, q := range batch {
			want[i] = decide(q)
			records[i] = wireMeasured{wireOf(q), clampThreads(want[i]), 1000 + rng.Int63n(1_000_000)}
		}
		w.reqs = append(w.reqs, request{reqBatch, batchBody(batch), batch, want})
		blob, _ := json.Marshal(map[string]any{"records": records}) // ints and strings always encode
		reports = append(reports, request{reqMeasured, blob, batch, nil})
	}
	w.reqs = append(w.reqs, reports...)
}

// warm sends the working set once (the batch workload: enough batches to
// fill the cache), so connections are up and the cache is in steady state.
func (w *serving) warm() error {
	n := len(w.reqs)
	if w.measured {
		n = cacheCapacity / batchDistinct
	}
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		if _, err := w.do(context.Background(), i%len(w.clients), &w.reqs[i], &buf, false); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

func (w *serving) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.server.Shutdown(ctx) // on timeout Close below severs what is left
	_ = w.server.Close()       // listener is already closed; nothing to report
	<-w.served
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	sharedEngine(w.sys.lib).SetRecorder(nil)
	w.ref.SetRecorder(nil)
	for _, rec := range w.rec {
		_ = rec.Close() // the capture is scratch data; the drop counter is read before
	}
}

// dropped is the number of records the daemon's flight recorder shed.
func (w *serving) dropped() int64 {
	if len(w.rec) == 0 {
		return 0
	}
	return w.rec[0].Dropped()
}

var errShed = errors.New("shed with 429")

// do sends one request from client c and checks the answer: 2xx and the
// expected decisions. traced asks the handler wrapper for its span.
func (w *serving) do(ctx context.Context, c int, rq *request, buf *bytes.Buffer, traced bool) (status int, err error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+reqPaths[rq.kind], bytes.NewReader(rq.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if traced {
		hr.Header.Set("X-Bench-Span", strconv.Itoa(c))
	}
	resp, err := w.clients[c].Do(hr)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		return resp.StatusCode, errShed
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("%s: status %d: %s", reqPaths[rq.kind], resp.StatusCode, buf.Bytes())
	}
	return resp.StatusCode, rq.check(buf.Bytes())
}

func (rq *request) check(body []byte) error {
	switch rq.kind {
	case reqPredict:
		var got struct {
			Threads int `json:"threads"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Threads != rq.want[0] {
			return fmt.Errorf("/predict: %d threads, want %d", got.Threads, rq.want[0])
		}
	case reqBatch:
		var got struct {
			Threads []int `json:"threads"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Threads) != len(rq.want) {
			return fmt.Errorf("/batch: %d decisions, want %d", len(got.Threads), len(rq.want))
		}
		for i, t := range got.Threads {
			if t != rq.want[i] {
				return fmt.Errorf("/batch: shape %d: %d threads, want %d", i, t, rq.want[i])
			}
		}
	case reqMeasured:
		var got struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if got.Accepted != len(rq.keys) {
			return fmt.Errorf("/measured: accepted %d of %d", got.Accepted, len(rq.keys))
		}
	}
	return nil
}

// verify checks decision parity for a sample of the working set. Every
// request of the timed run is checked as well, in do.
func (w *serving) verify(ck *checks) {
	var sample []key
	for i := 0; i < len(w.reqs) && len(sample) < 64; i += 7 {
		sample = append(sample, w.reqs[i].keys[0])
	}
	checkParity(ck, w.sys.lib, w.ref, w.handler, sample)
}

// sequence yields client c's requests: serve_predict walks the working set
// with the ops in turn; serve_batch_measured draws seeded batches and
// follows every fourth with the measured report of the round's first.
type sequence struct {
	w     *serving
	rng   *rand.Rand
	n     int
	first int
}

func (s *sequence) next() *request {
	w := s.w
	if !w.measured {
		rq := &w.reqs[s.n%len(w.reqs)]
		s.n += len(w.clients)
		return rq
	}
	pos := s.n % (batchesPerRound + 1)
	s.n++
	if pos == batchesPerRound {
		return &w.reqs[batchCount+s.first]
	}
	b := s.rng.Intn(batchCount)
	if pos == 0 {
		s.first = b
	}
	return &w.reqs[b]
}

func (w *serving) run(deadline time.Time, trs []*tracer) segment {
	segs := make([]segment, len(w.clients))
	start := time.Now()
	if trs != nil {
		w.handler.base = trs[0].base
	}
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			segs[c] = w.client(c, deadline, tr)
		}()
	}
	wg.Wait()
	total := segment{wall: time.Since(start)}
	for _, s := range segs {
		total.ops += s.ops
		total.failed += s.failed
		total.shed += s.shed
		total.busy += s.busy
		total.samples = append(total.samples, s.samples...)
	}
	return total
}

func (w *serving) client(c int, deadline time.Time, tr *tracer) segment {
	var seg segment
	var buf bytes.Buffer
	seq := &sequence{w: w, rng: rand.New(rand.NewSource(w.seed*131 + int64(c)))}
	if !w.measured {
		seq.n = c
	}
	ctx := context.Background()
	var round time.Duration // the current sample's requests so far
	for time.Now().Before(deadline) && (tr == nil || tr.room(3)) {
		rq := seq.next()
		t0 := time.Now()
		status, err := w.do(ctx, c, rq, &buf, tr != nil)
		dt := time.Since(t0)
		if tr != nil && status != 0 {
			w.recordSpans(tr, c, rq, t0, dt, int(seg.ops))
		}
		seg.ops++
		seg.busy += dt
		if errors.Is(err, errShed) {
			seg.shed++
		}
		if err != nil {
			seg.failed++
		}
		round += dt
		if per := int64(w.opsPerSample()); seg.ops%per == 0 {
			seg.samples = append(seg.samples, float64(round.Nanoseconds())/1e3/float64(per))
			round = 0
		}
	}
	return seg
}

// recordSpans files an answered round trip, the handler span the wrapper
// measured inside it (an answer means the wrapper ran, so its span is on
// the way), and — timed again on the private engine for the same payload,
// right after the reply — the engine work inside the handler.
func (w *serving) recordSpans(tr *tracer, c int, rq *request, t0 time.Time, dt time.Duration, op int) {
	start := int64(t0.Sub(tr.base))
	name := spanRoundtrip
	if rq.kind == reqMeasured {
		name = spanReport
	}
	root := tr.add(name, -1, op, start, start+int64(dt))
	h := <-w.handler.slots[c]
	hs := tr.add(spanHandler, root, op, h[0], h[1])
	ctx := context.Background()
	e0 := tr.now()
	name = spanPredict
	switch rq.kind {
	case reqPredict:
		predict(ctx, w.ref, rq.keys[0].op, rq.keys[0].m, rq.keys[0].k, rq.keys[0].n)
	case reqBatch:
		name = spanBatch
		enginePredictBatch(ctx, w.ref, rq.keys)
	case reqMeasured:
		name = spanRecord
		for _, q := range rq.keys {
			w.ref.RecordMeasured(q.op, q.m, q.k, q.n, 1, 1000)
		}
	}
	tr.add(name, hs, op, h[0], h[0]+tr.now()-e0)
}

// enginePredictBatch decides a mixed-op batch the way the daemon does: one
// engine batch per operation.
func enginePredictBatch(ctx context.Context, e *engine, keys []key) {
	for _, op := range allOps {
		var shapes []engineShape
		for _, q := range keys {
			if q.op == op {
				shapes = append(shapes, engineShape{M: q.m, K: q.k, N: q.n})
			}
		}
		if len(shapes) > 0 {
			predictBatch(ctx, e, op, shapes, nil)
		}
	}
}
