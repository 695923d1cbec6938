// adsala-worker is the distributed-gather worker daemon: it executes timing
// work units dispatched by an adsala-train coordinator (-workers flag),
// timing the registry kernels on this machine and answering each unit's
// request with its timings over HTTP.
//
// Endpoints:
//
//	POST /work      execute one work unit: the request carries the sweep spec
//	                (op, timing backend, domain, seed, candidates, iters),
//	                the unit ({id, start, count} into the coordinator's
//	                shape sample) and the unit's shapes; units run one at a
//	                time, and the answer is the unit's timings
//	GET  /healthz   the one probe: 200 whenever the process answers, with the
//	                units completed so far and whether one is executing
//	GET  /metrics   Prometheus text exposition
//
// The coordinator samples the sweep; the worker samples nothing and times
// exactly the shapes it is sent. It keeps no session: every request is
// checked on its own (a spec whose session is its fingerprint, a unit and
// spec within fixed bounds, every shape the op's canonical triple with each
// dimension in [1, 74 000] and, for real timing, at most 500 MB of float32
// operands), so one worker can serve several coordinators. The timing backend comes from the request's
// spec: simtime.RealTimer for real installs (the default), or the
// deterministic Simulator. With -sim the worker only accepts simulator
// sweeps — the guard tests and CI use so no wall-clock timing ever runs
// there.
//
// Usage:
//
//	adsala-worker -addr :9090
//	adsala-worker -addr :9091 -sim   # simulator-only (tests, CI)
//
// On SIGINT/SIGTERM the daemon drains: it stops accepting connections,
// lets the executing unit finish and answer its request (up to
// -drain-timeout), then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gather"
	"repro/internal/logx"
)

// config is the parsed command line of the daemon.
type config struct {
	addr         string
	name         string
	sim          bool
	drainTimeout time.Duration
	pprof        bool
	level        logx.Level
}

// parseFlags parses args (without the program name) into a config. Usage
// and parse errors print to out; a help request returns flag.ErrHelp.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("adsala-worker", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":9090", "listen address")
	fs.StringVar(&cfg.name, "name", "", "worker name reported to the coordinator (default: the listen address)")
	fs.BoolVar(&cfg.sim, "sim", false, "only accept simulator-backend sweeps (no real timing; for tests and CI)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "max wait for in-flight units on shutdown")
	fs.BoolVar(&cfg.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	level := logx.RegisterFlag(fs)
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	lvl, err := logx.ParseLevel(*level)
	if err != nil {
		return cfg, err
	}
	cfg.level = lvl
	return cfg, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	name := cfg.name
	if name == "" {
		name = cfg.addr
	}
	// One leveled logger for the whole daemon: lifecycle lines at info,
	// per-unit execution noise at debug.
	lg := logx.New(out, cfg.level)
	worker := gather.NewWorker(gather.WorkerOptions{
		Name:       name,
		RequireSim: cfg.sim,
		DebugLogf:  lg.Debugf,
	})
	if cfg.pprof {
		worker.EnablePprof()
		lg.Infof("pprof enabled at /debug/pprof/")
	}
	// ReadHeaderTimeout: a peer that opens sockets and trickles header bytes
	// must not hold connection goroutines for ever (the handlers bound the
	// bodies by size).
	srv := &http.Server{Addr: cfg.addr, Handler: worker, ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		mode := "real timing"
		if cfg.sim {
			mode = "simulator only"
		}
		lg.Infof("worker %s listening on %s (%s)", name, cfg.addr, mode)
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		lg.Infof("draining")
		// Shutdown closes the listener and idle connections, then waits for
		// the executing unit's request to answer.
		drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			lg.Infof("drain: %v (shutting down anyway)", err)
			return srv.Close()
		}
		return nil
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-worker: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
