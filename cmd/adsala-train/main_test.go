package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	adsala "repro"
)

// TestRunLocalAllOps is the end-to-end exercise of the wall-clock timer on
// every registered op: gather through the real kernels, train, save, load.
func TestRunLocalAllOps(t *testing.T) {
	if testing.Short() {
		t.Skip("local timing in -short mode")
	}
	path := filepath.Join(t.TempDir(), "l.json")
	var out bytes.Buffer
	err := run([]string{"-platform", "local", "-quick", "-shapes", "12", "-iters", "1",
		"-ops", "gemm,syrk,syr2k", "-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := adsala.Load(path)
	if err != nil {
		t.Fatalf("saved artefact does not load: %v", err)
	}
	if got := lib.TrainedOps(); len(got) != 3 {
		t.Errorf("trained ops = %v, want gemm, syrk and syr2k", got)
	}
	if lib.Platform() != "local" {
		t.Errorf("platform = %q", lib.Platform())
	}
	if !strings.Contains(out.String(), "library written to "+path) {
		t.Errorf("output missing the written-to line:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "never.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-checkpoint", "x"}, "-checkpoint requires -workers"},
		{[]string{"-workers", " , "}, "no usable addresses"},
		{[]string{"-platform", "cray"}, "unknown platform"},
		{[]string{"-ops", "trsm"}, "trsm"},
	} {
		err := run(append(tc.args, "-out", out), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
