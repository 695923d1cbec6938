package main

// The serving load harness: -serve-json drives a closed-loop mixed-op
// client fleet against an adsala-serve daemon (an external one via
// -serve-addr, or an in-process server over a quickly trained simulator
// artefact) and appends one run — throughput plus p50/p95/p99 decision
// latency — to BENCH_serve.json. Like the kernel harnesses, the committed
// file records the serving-path trajectory per development machine; CI
// runs a short smoke of the same harness against a real daemon.
//
// Each client times every request into its own lock-free histogram; the
// fleet's histograms are merged at the end (the mergeability the per-shard
// metrics rely on), so the load loop itself takes no locks and allocates
// only the request/response JSON.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	adsala "repro"
	"repro/internal/obs"
	"repro/internal/sampling"
	"repro/internal/serve"
)

// serveBenchConfig is the -serve-* flag set.
type serveBenchConfig struct {
	out      string        // report path ("-" for stdout; no append then)
	addr     string        // external daemon base URL; empty = in-process
	lib      string        // artefact for the in-process daemon; empty = quick sim train
	clients  int           // concurrent closed-loop clients
	duration time.Duration // measured wall time
	ops      string        // comma-separated op mix
	batch    int           // shapes per request: 1 = /predict, >1 = /batch
	shapes   int           // distinct working-set shapes per op
	seed     int64         // working-set sampling seed
}

// serveBenchRun is one appended measurement.
type serveBenchRun struct {
	GeneratedAt     string   `json:"generated_at"`
	GoVersion       string   `json:"go_version"`
	GOARCH          string   `json:"goarch"`
	NumCPU          int      `json:"num_cpu"`
	Mode            string   `json:"mode"` // "inprocess" or "remote"
	Ops             []string `json:"ops"`
	Clients         int      `json:"clients"`
	Batch           int      `json:"batch"`
	WorkingSet      int      `json:"working_set_shapes"`
	DurationSeconds float64  `json:"duration_seconds"`
	Requests        int64    `json:"requests"`
	Decisions       int64    `json:"decisions"`
	Errors          int64    `json:"errors"`
	ThroughputRPS   float64  `json:"throughput_rps"`
	DecisionsPerSec float64  `json:"decisions_per_sec"`
	P50Micros       float64  `json:"p50_micros"`
	P95Micros       float64  `json:"p95_micros"`
	P99Micros       float64  `json:"p99_micros"`
	MeanMicros      float64  `json:"mean_micros"`
	// ServerHitRate and ServerPredictions come from the daemon's /stats
	// after the run — the server-side view of the same traffic.
	ServerHitRate     float64 `json:"server_hit_rate"`
	ServerPredictions int64   `json:"server_predictions"`
}

// serveBenchReport is the file layout of BENCH_serve.json. Runs append:
// the committed file accumulates the trajectory across changes.
type serveBenchReport struct {
	Schema string          `json:"schema"`
	Note   string          `json:"note"`
	Runs   []serveBenchRun `json:"runs"`
}

const serveBenchSchema = "adsala/bench-serve/v1"

// runServeBench drives the load and appends the run to cfg.out.
func runServeBench(cfg serveBenchConfig) error {
	if cfg.clients < 1 {
		return fmt.Errorf("serve bench: -serve-clients must be >= 1, got %d", cfg.clients)
	}
	if cfg.batch < 1 {
		return fmt.Errorf("serve bench: -serve-batch must be >= 1, got %d", cfg.batch)
	}
	if cfg.duration <= 0 {
		return fmt.Errorf("serve bench: -serve-duration must be positive, got %v", cfg.duration)
	}
	opList, err := serveBenchOps(cfg.ops)
	if err != nil {
		return err
	}

	base := cfg.addr
	mode := "remote"
	if base == "" {
		mode = "inprocess"
		stop, addr, err := startInProcessDaemon(cfg.lib)
		if err != nil {
			return err
		}
		defer stop()
		base = addr
	}
	ctx := context.Background()
	client := serve.NewClient(base, nil)
	if h, err := client.Healthz(ctx); err != nil {
		return fmt.Errorf("serve bench: daemon at %s not ready: %w", base, err)
	} else if !h.Ready {
		return fmt.Errorf("serve bench: daemon at %s reports %q", base, h.Status)
	}

	// One canonicalised working set per op, shared by every client: the mix
	// exercises the per-op caches the way repeated production shapes do.
	working := make(map[serve.Op][]sampling.Shape, len(opList))
	for _, op := range opList {
		sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(100), cfg.seed)
		if err != nil {
			return err
		}
		shapes := sampler.Sample(cfg.shapes)
		canon := op.Spec().Canon
		for i, sh := range shapes {
			shapes[i] = canon(sh)
		}
		working[op] = shapes
	}

	benchLog.Infof("serve-bench: %d clients x %v against %s (%s), ops %v, batch %d",
		cfg.clients, cfg.duration, base, mode, cfg.ops, cfg.batch)

	type clientResult struct {
		hist     *obs.Histogram
		requests int64
		errors   int64
	}
	results := make([]clientResult, cfg.clients)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			// Per-client connection and histogram: the loop shares nothing,
			// mirroring independent production clients.
			cl := serve.NewClient(base, nil)
			hist := obs.NewHistogram(1e-9)
			var requests, errs int64
			reqs := make([]serve.PredictRequest, cfg.batch)
			for i := 0; time.Now().Before(deadline); i++ {
				op := opList[(i+ci)%len(opList)]
				set := working[op]
				var err error
				t0 := time.Now()
				if cfg.batch == 1 {
					sh := set[(i*7+ci*13)%len(set)]
					_, err = cl.Predict(ctx, serve.PredictRequest{M: sh.M, K: sh.K, N: sh.N, Op: op.String()})
				} else {
					for j := range reqs {
						sh := set[(i*7+ci*13+j)%len(set)]
						reqs[j] = serve.PredictRequest{M: sh.M, K: sh.K, N: sh.N, Op: op.String()}
					}
					_, err = cl.PredictBatch(ctx, reqs)
				}
				hist.ObserveSince(t0)
				requests++
				if err != nil {
					errs++
				}
			}
			results[ci] = clientResult{hist: hist, requests: requests, errors: errs}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	merged := obs.NewHistogram(1e-9)
	run := serveBenchRun{
		GeneratedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		Mode:            mode,
		Clients:         cfg.clients,
		Batch:           cfg.batch,
		WorkingSet:      cfg.shapes,
		DurationSeconds: elapsed.Seconds(),
	}
	for _, op := range opList {
		run.Ops = append(run.Ops, op.String())
	}
	for _, cr := range results {
		merged.Merge(cr.hist)
		run.Requests += cr.requests
		run.Errors += cr.errors
	}
	run.Decisions = run.Requests * int64(cfg.batch)
	run.ThroughputRPS = float64(run.Requests) / elapsed.Seconds()
	run.DecisionsPerSec = float64(run.Decisions) / elapsed.Seconds()
	run.P50Micros = merged.QuantileScaled(0.50) * 1e6
	run.P95Micros = merged.QuantileScaled(0.95) * 1e6
	run.P99Micros = merged.QuantileScaled(0.99) * 1e6
	run.MeanMicros = merged.Mean() * 1e6

	if st, err := client.Stats(ctx); err == nil {
		run.ServerHitRate = st.Engine.HitRate
		run.ServerPredictions = st.Engine.Predictions
	}

	benchLog.Infof(
		"serve-bench: %d requests (%d errors) in %.2fs = %.0f req/s; p50 %.0fµs p95 %.0fµs p99 %.0fµs",
		run.Requests, run.Errors, elapsed.Seconds(), run.ThroughputRPS,
		run.P50Micros, run.P95Micros, run.P99Micros)
	if run.Requests == 0 {
		return fmt.Errorf("serve bench: no requests completed")
	}
	if run.Errors > 0 && run.Errors*10 > run.Requests {
		return fmt.Errorf("serve bench: %d of %d requests failed", run.Errors, run.Requests)
	}
	return appendServeBenchRun(cfg.out, run)
}

// serveBenchOps parses the comma-separated op mix.
func serveBenchOps(list string) ([]serve.Op, error) {
	var out []serve.Op
	for _, name := range splitComma(list) {
		op, err := serve.ParseOp(name)
		if err != nil {
			return nil, fmt.Errorf("serve bench: %w", err)
		}
		out = append(out, op)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve bench: empty -serve-ops")
	}
	return out, nil
}

// splitComma splits on commas, trimming blanks.
func splitComma(s string) []string {
	var out []string
	for start := 0; start <= len(s); {
		end := start
		for end < len(s) && s[end] != ',' {
			end++
		}
		if f := s[start:end]; f != "" {
			out = append(out, f)
		}
		start = end + 1
	}
	return out
}

// startInProcessDaemon boots a loopback adsala-serve over libPath (or a
// quickly trained simulator artefact when empty) and returns its base URL
// with a shutdown func.
func startInProcessDaemon(libPath string) (stop func(), base string, err error) {
	var lib *adsala.Library
	if libPath != "" {
		lib, err = adsala.Load(libPath)
	} else {
		benchLog.Infof("serve-bench: training quick simulator artefact for the in-process daemon")
		lib, _, err = adsala.Train(adsala.TrainOptions{Platform: "Gadi", Shapes: 96, Quick: true, Seed: 11})
	}
	if err != nil {
		return nil, "", err
	}
	srv := lib.NewServer(adsala.ServeOptions{CacheSize: 4096, Shards: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	return func() { hs.Close() }, "http://" + ln.Addr().String(), nil
}

// appendServeBenchRun appends run to the report at path, creating it on
// first use. "-" writes a single-run report to stdout.
func appendServeBenchRun(path string, run serveBenchRun) error {
	report := serveBenchReport{
		Schema: serveBenchSchema,
		Note: "closed-loop mixed-op load against adsala-serve; latency is client-observed per request; " +
			"runs append chronologically per development machine",
	}
	if path != "-" {
		blob, err := os.ReadFile(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// First run creates the file.
		case err != nil:
			return err
		default:
			if err := json.Unmarshal(blob, &report); err != nil {
				return fmt.Errorf("serve bench: %s exists but is not a bench-serve report: %w", path, err)
			}
			if report.Schema != serveBenchSchema {
				return fmt.Errorf("serve bench: %s has schema %q, want %q", path, report.Schema, serveBenchSchema)
			}
		}
	}
	report.Runs = append(report.Runs, run)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
