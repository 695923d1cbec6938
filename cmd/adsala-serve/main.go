// adsala-serve is the prediction-serving daemon: it loads a library written
// by adsala-train and answers thread-selection queries over HTTP from a
// sharded decision cache.
//
// Endpoints:
//
//	GET  /predict?m=&k=&n=&op=  one decision (add &detail=1 for the ranking)
//	POST /predict               {"m":..,"k":..,"n":..,"op":"gemm"|"syrk"|"syr2k"}
//	POST /batch                 {"shapes":[{"m":..,"k":..,"n":..,"op":..},...]}
//	POST /measured              measured kernel wall times reported back by executing clients
//	GET  /drift                 online model-quality drift report (requires -drift-window)
//	GET  /stats                 cache, engine and HTTP latency metrics
//	GET  /healthz               readiness probe: 503 while draining
//	GET  /livez                 liveness probe: 200 whenever the process answers
//	GET  /metrics               Prometheus text exposition
//
// The op field selects the registered operation the decision is for
// (default "gemm"); decisions are cached per (op, shape) and rank with the
// op's own model when the library was trained with one (adsala-train
// -ops gemm,syrk,...). Symmetric updates pass the (n, k, n) triple of the
// output shape. A batch may mix ops; it is answered in request order.
//
// Usage:
//
//	adsala-serve -lib gadi.adsala.json -addr :8080
//	adsala-serve -lib gadi.adsala.json -reload-on SIGHUP -admin-token s3cret
//
// The decision cache starts empty and is filled by the traffic itself: the
// first request for a shape ranks the candidates (microseconds), every
// repeat is a cache hit. Nothing is persisted across restarts.
//
// Hot reload: -reload-on SIGHUP re-reads -lib and swaps the artefact
// atomically on SIGHUP without dropping readiness; -admin-token
// additionally mounts an authenticated POST /admin/reload doing the same
// over HTTP. After a swap the decision cache starts empty again and live
// traffic is answered against the new models.
//
// Overload protection: -max-inflight bounds concurrently served prediction
// requests (excess waits briefly, then sheds with 429 + Retry-After);
// -request-timeout bounds each request's ranking work. Requests that
// cannot rank in time are answered by a deterministic heuristic and tagged
// "fallback": true.
//
// Trace capture: -trace <prefix> turns on the flight recorder — one compact
// binary record per decision appended to rotating `<prefix>-NNNNN.trace`
// files (`-trace-max-mb` sets the rotation threshold), with drop-don't-block
// backpressure so recording can never stall a request. Replay a capture
// offline with adsala-replay to backtest candidate artefacts against real
// traffic. Recorder health is exposed as adsala_trace_* metrics.
//
// Drift monitoring: -drift-window 1m turns on the online model-quality
// monitor — every measured wall time reported through POST /measured is
// scored against the model's prediction into per-op, shape-bucketed sliding
// windows of the same residual statistics adsala-replay computes offline.
// When an op's |windowed mean residual_log2| exceeds -drift-threshold (with
// at least -drift-min-samples residuals in the window), /healthz flips to
// "degraded": true naming the op while readiness stays 200, a structured
// drift_start event is logged, and adsala_drift_* gauges expose the window
// on /metrics. GET /drift serves the full schema-versioned report; tune
// thresholds offline by running the same detector over a capture with
// adsala-replay -drift.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/logx"
	"repro/internal/serve"
	"repro/internal/trace"
)

// config is the parsed command line of the daemon.
type config struct {
	libPath   string
	addr      string
	cacheSize int
	shards    int
	pprof     bool
	level     logx.Level

	adminToken  string
	reloadOn    string
	maxInflight int
	reqTimeout  time.Duration

	tracePrefix string
	traceMaxMB  int

	driftWindow     time.Duration
	driftThreshold  float64
	driftMinSamples int64
}

// parseFlags parses args (without the program name) into a config. Usage
// and parse errors print to out; a help request returns flag.ErrHelp.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("adsala-serve", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg config
	fs.StringVar(&cfg.libPath, "lib", "adsala.json", "library file written by adsala-train")
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.cacheSize, "cache", 4096, "decision cache capacity (entries, rounded to a power of two)")
	fs.IntVar(&cfg.shards, "shards", 16, "decision cache shard count (rounded to a power of two)")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.adminToken, "admin-token", "", "token authorising POST /admin/reload (empty disables the endpoint)")
	fs.StringVar(&cfg.reloadOn, "reload-on", "", "signal triggering a hot artefact reload (only SIGHUP is supported; empty disables)")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0, "max concurrently served prediction requests (0 = 8×GOMAXPROCS, negative disables shedding)")
	fs.DurationVar(&cfg.reqTimeout, "request-timeout", 0, "per-request ranking deadline (0 = 2s, negative disables)")
	fs.StringVar(&cfg.tracePrefix, "trace", "", "flight-recorder capture prefix: append one record per decision to <prefix>-NNNNN.trace files (empty disables)")
	fs.IntVar(&cfg.traceMaxMB, "trace-max-mb", 64, "trace file rotation threshold in MiB (negative disables rotation)")
	fs.DurationVar(&cfg.driftWindow, "drift-window", 0, "sliding window of the online drift monitor (0 disables drift monitoring)")
	fs.Float64Var(&cfg.driftThreshold, "drift-threshold", 1.0, "drift trip point on |windowed mean residual_log2| (1.0 = predictions off by 2x on average)")
	fs.Int64Var(&cfg.driftMinSamples, "drift-min-samples", 32, "minimum windowed residual count before an op can be flagged drifting")
	level := logx.RegisterFlag(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	lvl, err := logx.ParseLevel(*level)
	if err != nil {
		return cfg, err
	}
	cfg.level = lvl
	switch strings.ToUpper(cfg.reloadOn) {
	case "":
	case "SIGHUP", "HUP":
		cfg.reloadOn = "SIGHUP"
	default:
		return cfg, fmt.Errorf("-reload-on %q is not supported (want SIGHUP)", cfg.reloadOn)
	}
	return cfg, nil
}

// newServer loads the library and returns the HTTP front end over its
// engine, ready to serve. Progress lines go to out at the configured
// -log-level.
//
// The daemon answers for callers on machines it cannot see, so it ranks the
// artefact's whole candidate set (the executing client clamps), not this
// host's feasible view as the in-process adsala.Library engines do. Start-up
// and reload go through the one load closure, so they cannot disagree.
func newServer(cfg config, out io.Writer) (*serve.Server, error) {
	lg := logx.New(out, cfg.level)
	load := func() (*core.Library, error) { return core.Load(cfg.libPath) }
	lib, err := load()
	if err != nil {
		return nil, err
	}
	eng := serve.NewEngine(lib, serve.Options{
		CacheSize: cfg.cacheSize,
		Shards:    cfg.shards,
	})
	lg.Infof("loaded %s: platform=%s model=%s, cache %d entries / %d shards",
		cfg.libPath, lib.Platform, lib.ModelKind(), eng.Cache().Capacity(), eng.Cache().Shards())
	opts := []serve.ServerOption{
		serve.WithLimits(serve.Limits{
			MaxInFlight:    cfg.maxInflight,
			RequestTimeout: cfg.reqTimeout,
		}),
	}
	if cfg.adminToken != "" || cfg.reloadOn != "" {
		opts = append(opts, serve.WithReload(serve.ReloadConfig{
			Load:  load,
			Token: cfg.adminToken,
			Logf:  lg.Infof,
		}))
	}
	srv := serve.NewServer(eng, opts...)
	if cfg.pprof {
		srv.EnablePprof()
		lg.Infof("pprof enabled at /debug/pprof/")
	}
	if cfg.tracePrefix != "" {
		rec, err := trace.Open(cfg.tracePrefix, trace.Options{
			MaxFileBytes: int64(cfg.traceMaxMB) << 20,
		})
		if err != nil {
			return nil, fmt.Errorf("open flight recorder: %w", err)
		}
		// The recorder outlives the engine's serving life and is closed
		// after graceful shutdown (via Engine().Recorder()).
		eng.SetRecorder(rec)
		rec.RegisterMetrics(srv.Registry())
		lg.Infof("flight recorder capturing to %s-*.trace (rotate at %d MiB)", cfg.tracePrefix, cfg.traceMaxMB)
	}
	if cfg.driftWindow > 0 {
		mon := drift.NewMonitor(drift.Config{
			Window:     cfg.driftWindow,
			Threshold:  cfg.driftThreshold,
			MinSamples: cfg.driftMinSamples,
		})
		eng.SetDriftMonitor(mon)
		mon.RegisterMetrics(srv.Registry())
		rc := mon.Config()
		lg.Infof("drift monitor on: window=%s threshold=%.2f min-samples=%d (/drift, POST /measured)",
			rc.Window, rc.Threshold, rc.MinSamples)
	}
	return srv, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	lg := logx.New(out, cfg.level)
	handler, err := newServer(cfg, out)
	if err != nil {
		return err
	}
	// ReadHeaderTimeout: a peer that opens sockets and trickles header bytes
	// must not hold connection goroutines for ever (the handlers bound the
	// bodies by size).
	srv := &http.Server{Addr: cfg.addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.reloadOn == "SIGHUP" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				body, err := handler.Reload()
				if err != nil {
					// Reload keeps the old artefact serving on failure; the
					// daemon stays healthy.
					lg.Infof("WARNING: SIGHUP reload failed: %v", err)
					continue
				}
				lg.Infof("SIGHUP reload complete: generation %d, %d ops", body.Generation, len(body.Ops))
			}
		}()
	}
	// closeTrace drains and closes the flight recorder, if one is attached —
	// run after the listener stops producing decisions, so the final partial
	// block (and any write error the drain hit) surfaces before exit.
	closeTrace := func() {
		rec := handler.Engine().Recorder()
		if rec == nil {
			return
		}
		handler.Engine().SetRecorder(nil)
		if err := rec.Close(); err != nil {
			lg.Infof("WARNING: flight recorder close: %v", err)
			return
		}
		lg.Infof("flight recorder closed: %d records captured, %d dropped, %d bytes",
			rec.Records(), rec.Dropped(), rec.BytesWritten())
	}
	errc := make(chan error, 1)
	go func() {
		lg.Infof("serving on %s", cfg.addr)
		errc <- srv.ListenAndServe()
	}()
	// Drift events surface in the log on a slot-duration cadence — one
	// eighth of the window, the monitor's own eviction granularity, so every
	// window rotation gets one evaluation. Only this logging loop ticks.
	if mon := handler.Engine().DriftMonitor(); mon != nil {
		mc := mon.Config()
		go func() {
			tick := time.NewTicker(mc.Window / 8)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					mon.LogEvents(lg)
				}
			}
		}()
	}
	select {
	case err := <-errc:
		closeTrace()
		return err
	case <-ctx.Done():
		// Flip readiness before the listener closes so probes observe the
		// drain instead of racing connection resets.
		handler.SetReady(false)
		lg.Infof("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		// The drained listener can no longer produce decisions; flush the
		// capture so the trace on disk is complete before the process exits.
		closeTrace()
		return err
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-serve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
