package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	adsala "repro"
)

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, bad := range [][]string{
		{"-m", "0"},
		{"-k", "-5"},
		{"-n", "0"},
		{"-m", "abc"},
		{"-no-such-flag"},
	} {
		if err := run(bad, &out); err == nil {
			t.Errorf("run(%v) should error", bad)
		}
	}
	if err := run([]string{"-lib", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing library should error")
	}
}

func TestRunHelpPrintsUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
	for _, flagName := range []string{"-lib", "-m", "-k", "-n"} {
		if !strings.Contains(out.String(), flagName) {
			t.Errorf("usage missing %s:\n%s", flagName, out.String())
		}
	}
}

func TestRunPrintsRanking(t *testing.T) {
	lib, _, err := adsala.Train(adsala.TrainOptions{Platform: "Gadi", Shapes: 80, Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := lib.Save(path); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-lib", path, "-m", "512", "-k", "512", "-n", "512"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	opt := lib.OptimalThreadsOp(adsala.OpGEMM, 512, 512, 512)
	if !strings.Contains(got, "optimal threads: "+strconv.Itoa(opt)) {
		t.Errorf("output missing the selected optimum %d:\n%s", opt, got)
	}
	if !strings.Contains(got, "<== selected") {
		t.Errorf("output missing the selection marker:\n%s", got)
	}
	if !strings.Contains(got, "platform=Gadi") {
		t.Errorf("output missing the platform line:\n%s", got)
	}
	// After the artefact-wide table: what this host ranks and picks, which
	// is the argmin of the table over the rows GOMAXPROCS can run.
	host := runtime.GOMAXPROCS(0)
	runnable, here, bestT := 0, 0, 0.0
	for _, c := range lib.Candidates() {
		if c > host {
			continue
		}
		runnable++
		if rt := lib.PredictRuntimeOp(adsala.OpGEMM, 512, 512, 512, c); here == 0 || rt < bestT {
			here, bestT = c, rt
		}
	}
	want := fmt.Sprintf("runnable here (GOMAXPROCS=%d): %d of %d candidates → %d threads\n",
		host, runnable, len(lib.Candidates()), here)
	if !strings.HasSuffix(got, want) {
		t.Errorf("output does not end with %q:\n%s", want, got)
	}
	// One table row per candidate.
	for _, c := range lib.Candidates() {
		if !strings.Contains(got, "\n"+strconv.Itoa(c)) && !strings.Contains(got, " "+strconv.Itoa(c)) {
			t.Errorf("candidate %d missing from the table:\n%s", c, got)
		}
	}
}
