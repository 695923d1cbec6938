// adsala-bench regenerates the paper's tables and figures as text output.
// (The repository's performance numbers come from BENCHMARK.json + bench/.)
//
// Usage:
//
//	adsala-bench -list
//	adsala-bench -exp table5
//	adsala-bench -exp all -scale default
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
)

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("adsala-bench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		exp   = fs.String("exp", "all", "experiment id or \"all\"")
		scale = fs.String("scale", "default", "quick, default or paper")
		list  = fs.Bool("list", false, "list experiment ids and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(out, "%-18s %s\n", id, experiments.Describe(id))
		}
		return nil
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "default":
		sc = experiments.DefaultScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick, default or paper)", *scale)
	}
	lab := experiments.NewLab(sc)

	if *exp == "all" {
		return experiments.RunAll(out, lab)
	}
	return experiments.Run(*exp, out, lab)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-bench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
