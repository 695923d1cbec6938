// adsala-predict queries a saved ADSALA library: for a given GEMM shape it
// prints the predicted runtime of every candidate thread count and the
// selected optimum, then what this host would rank and pick — the library's
// engine ranks only the candidates GOMAXPROCS lets it run.
//
// Usage:
//
//	adsala-predict -lib gadi.adsala.json -m 64 -k 2048 -n 64
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	adsala "repro"
	"repro/internal/logx"
	"repro/internal/tabulate"
)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adsala-predict", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		libPath  = fs.String("lib", "adsala.json", "library file written by adsala-train")
		m        = fs.Int("m", 1024, "rows of A / C")
		k        = fs.Int("k", 1024, "cols of A / rows of B")
		n        = fs.Int("n", 1024, "cols of B / C")
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
	lg := logx.New(out, level)
	if *m < 1 || *k < 1 || *n < 1 {
		return fmt.Errorf("dimensions must be positive, got %dx%dx%d", *m, *k, *n)
	}

	lg.Debugf("loading library %s", *libPath)
	lib, err := adsala.Load(*libPath)
	if err != nil {
		return err
	}
	lg.Debugf("library format v%d, trained ops %v", lib.FormatVersion(), lib.TrainedOps())
	opt := lib.OptimalThreadsOp(adsala.OpGEMM, *m, *k, *n)
	fmt.Fprintf(out, "library: platform=%s model=%s\n", lib.Platform(), lib.ModelKind())
	fmt.Fprintf(out, "GEMM %dx%dx%d -> optimal threads: %d\n\n", *m, *k, *n, opt)

	tb := tabulate.New("threads", "predicted runtime (us)", "")
	for _, c := range lib.Candidates() {
		mark := ""
		if c == opt {
			mark = "<== selected"
		}
		tb.Row(tabulate.D(c), tabulate.F(lib.PredictRuntimeOp(adsala.OpGEMM, *m, *k, *n, c)*1e6, 2), mark)
	}
	fmt.Fprint(out, tb.String())

	// The table above is the artefact's; an in-process caller on this host
	// gets the decision of the library's engine.
	eng := lib.Engine(adsala.ServeOptions{})
	here, _ := eng.PredictOpCtx(context.Background(), adsala.OpGEMM, *m, *k, *n)
	fmt.Fprintf(out, "\nrunnable here (GOMAXPROCS=%d): %d of %d candidates → %d threads\n",
		runtime.GOMAXPROCS(0), len(eng.Candidates()), len(lib.Candidates()), here)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-predict: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
