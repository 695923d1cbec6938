package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// deletedFlags steered the trajectory and serving harnesses this command
// used to carry; the repository's one benchmark is bench/ now, and the
// parser must keep refusing every one of them.
var deletedFlags = []string{
	"-gemm-json", "-gemm-smoke", "-syrk-json", "-syrk-smoke", "-syr2k-json", "-syr2k-smoke",
	"-serve-json", "-serve-addr", "-serve-lib", "-serve-clients", "-serve-duration",
	"-serve-ops", "-serve-batch", "-serve-shapes", "-serve-seed", "-log-level",
}

func TestRun(t *testing.T) {
	// -list is one "%-18s %s" line per registered experiment, in ID order.
	var list strings.Builder
	for _, id := range experiments.IDs() {
		fmt.Fprintf(&list, "%-18s %s\n", id, experiments.Describe(id))
	}

	type tc struct {
		name    string
		args    []string
		wantOut string   // exact output, when non-empty
		wantErr []string // substrings of the error; nil means success
	}
	cases := []tc{
		{name: "list", args: []string{"-list"}, wantOut: list.String()},
		{name: "unknown exp", args: []string{"-exp", "fig99", "-scale", "quick"}, wantErr: append([]string{`"fig99"`}, experiments.IDs()...)},
		{name: "unknown scale", args: []string{"-exp", "fig1", "-scale", "huge"}, wantErr: []string{`"huge"`, "quick", "default", "paper"}},
		{name: "one experiment", args: []string{"-exp", "fig1", "-scale", "quick"}},
	}
	for _, f := range deletedFlags {
		cases = append(cases, tc{name: "deleted " + f, args: []string{f, "x"}, wantErr: []string{"flag provided but not defined: " + f}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			switch {
			case c.wantErr == nil && err != nil:
				t.Fatalf("run(%v) = %v", c.args, err)
			case c.wantErr == nil && out.Len() == 0:
				t.Fatalf("run(%v) wrote nothing", c.args)
			case c.wantErr != nil && err == nil:
				t.Fatalf("run(%v) should error", c.args)
			}
			for _, want := range c.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("run(%v) error %q does not mention %q", c.args, err, want)
				}
			}
			if c.wantOut != "" && out.String() != c.wantOut {
				t.Errorf("run(%v) printed:\n%s\nwant:\n%s", c.args, out.String(), c.wantOut)
			}
		})
	}
}
