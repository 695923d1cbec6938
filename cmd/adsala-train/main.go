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
//
// -ops trains one model per listed operation (GEMM is always trained); the
// artefact stores the per-op bundle in format v2, and the report prints one
// comparison table per op.
//
// The library file is replaced atomically: an install stopped by a signal
// exits non-zero and leaves whatever -out held before.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	adsala "repro"
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
		outPath  = fs.String("out", "adsala.json", "output library file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	trainOps, err := adsala.ParseOps(*opsFlag)
	if err != nil {
		return err
	}
	lib, report, err := adsala.Train(adsala.TrainOptions{
		Platform: *platform,
		CapMB:    *capMB,
		Shapes:   *shapes,
		Iters:    *iters,
		Seed:     *seed,
		Quick:    *quick,
		NoHT:     *noHT,
		Ops:      trainOps,
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
