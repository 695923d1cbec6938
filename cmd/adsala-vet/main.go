// Command adsala-vet runs the project's invariant analyzers (zeroalloc,
// ctxflow, metricname — see internal/analysis) alongside the
// standard `go vet` passes over the named packages.
//
// Usage:
//
//	go run ./cmd/adsala-vet ./...
//
// Diagnostics print as file:line:col: analyzer: message, and the exit
// status is 1 when any finding survives. Suppress a justified finding
// with a comment on the same or preceding line:
//
//	//adsala:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adsala-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the project analyzers and exit")
	noVet := fs.Bool("no-vet", false, "skip delegating to the standard `go vet` passes")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("C", ".", "directory to run in (module root)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		var picked []*analysis.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
				delete(want, a.Name)
			}
		}
		for name := range want {
			fmt.Fprintf(stderr, "adsala-vet: unknown analyzer %q\n", name)
			return 2
		}
		analyzers = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	exit := 0

	// The standard vet passes first: they share the build cache with the
	// loader below, so the compile work is paid once.
	if !*noVet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Dir = *dir
		vet.Stdout = stdout
		vet.Stderr = stderr
		if err := vet.Run(); err != nil {
			exit = 1
		}
	}

	mod, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "adsala-vet: %v\n", err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(mod, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "adsala-vet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "adsala-vet: %d finding(s)\n", len(diags))
		exit = 1
	}
	return exit
}
