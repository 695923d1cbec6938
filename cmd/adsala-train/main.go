// adsala-train runs the ADSALA installation workflow (Fig 2): it gathers
// GEMM timings on the selected platform, preprocesses them, tunes and trains
// the eight candidate models, prints the Table III/IV-style comparison, and
// saves the selected model plus preprocessing configuration to a library
// file for the runtime (Fig 3).
//
// Usage:
//
//	adsala-train -platform Gadi -cap 500 -shapes 300 -out gadi.adsala.json
//	adsala-train -platform local -out local.adsala.json
//	adsala-train -platform Gadi -ops gemm,syrk -out gadi.adsala.json
//	adsala-train -platform Gadi -workers host1:9090,host2:9090 \
//	    -checkpoint gather.ckpt -out gadi.adsala.json
//
// -ops trains one model per listed operation (GEMM is always trained); the
// artefact stores the per-op bundle in format v2, and the report prints one
// comparison table per op.
//
// -workers shards the timing sweep across a fleet of adsala-worker daemons
// (the slowest stage of installation; see the README "Distributed
// training" section). The merged sweep is ordered by sample index, so a
// simulated-platform distributed gather trains the identical model the
// single-node path would. -checkpoint makes the sweep resumable: completed
// work units are appended to a JSONL file and skipped on restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	adsala "repro"
	"repro/internal/logx"
)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adsala-train", flag.ContinueOnError)
	var (
		platform = fs.String("platform", "Gadi", "Setonix, Gadi (simulated) or local")
		capMB    = fs.Int("cap", 0, "memory cap in MB for sampled GEMMs (0 = platform default)")
		shapes   = fs.Int("shapes", 0, "number of sampled shapes (0 = platform default; paper used 1763)")
		iters    = fs.Int("iters", 3, "timing repetitions per configuration (paper: 10)")
		seed     = fs.Int64("seed", 1, "random seed")
		quick    = fs.Bool("quick", false, "smaller model grids and ensembles")
		noHT     = fs.Bool("no-ht", false, "disable hyper-threading on the simulated platform")
		opsFlag  = fs.String("ops", "gemm", "comma-separated operations to train models for (gemm,syrk,syr2k); gemm is always included")
		workers  = fs.String("workers", "", "comma-separated adsala-worker addresses to shard the timing sweep across (empty = single-node gather)")
		ckpt     = fs.String("checkpoint", "", "resumable gather checkpoint path prefix (distributed gather only; per-op suffix appended)")
		outPath  = fs.String("out", "adsala.json", "output library file")
		levelStr = logx.RegisterFlag(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	level, err := logx.ParseLevel(*levelStr)
	if err != nil {
		return err
	}
	lg := logx.New(os.Stderr, level)

	trainOps, err := adsala.ParseOps(*opsFlag)
	if err != nil {
		return err
	}
	var workerList []string
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workerList = append(workerList, w)
			}
		}
		if len(workerList) == 0 {
			return errors.New("-workers lists no usable addresses")
		}
	}
	if *ckpt != "" && len(workerList) == 0 {
		return errors.New("-checkpoint requires -workers (the single-node gather is not checkpointed)")
	}
	// Ctrl-C / SIGTERM cancels the timing gather between units instead of
	// killing the process mid-write: a checkpointed distributed sweep keeps
	// everything merged so far and resumes on the next run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lib, report, err := adsala.Train(adsala.TrainOptions{
		Context:    ctx,
		Platform:   *platform,
		CapMB:      *capMB,
		Shapes:     *shapes,
		Iters:      *iters,
		Seed:       *seed,
		Quick:      *quick,
		NoHT:       *noHT,
		Ops:        trainOps,
		Workers:    workerList,
		Checkpoint: *ckpt,
		Logf: func(format string, args ...any) {
			lg.Infof("gather: "+format, args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Model comparison on %s:\n%s\n", lib.Platform(), report)
	fmt.Fprintf(out, "trained ops: %v\n", lib.TrainedOps())
	fmt.Fprintf(out, "selected model: %s (eval latency %.1f us)\n",
		lib.ModelKind(), lib.EvalLatency()*1e6)
	if err := lib.Save(*outPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "library written to %s\n", *outPath)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-train: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
