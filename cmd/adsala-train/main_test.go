package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	adsala "repro"
)

// TestMain runs the command itself instead of the tests when the test binary
// is re-executed as the adsala-train process of TestInterruptKeepsArtefact.
func TestMain(m *testing.M) {
	if os.Getenv("ADSALA_TRAIN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

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
		{[]string{"-workers", "127.0.0.1:9301"}, "flag provided but not defined: -workers"},
		{[]string{"-checkpoint", "x"}, "flag provided but not defined: -checkpoint"},
		{[]string{"-log-level", "info"}, "flag provided but not defined: -log-level"},
		{[]string{"-platform", "cray"}, "unknown platform"},
		{[]string{"-ops", "trsm"}, "trsm"},
	} {
		err := run(append(tc.args, "-out", out), new(bytes.Buffer))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestInterruptKeepsArtefact sends SIGINT to a running multi-second install
// whose -out already holds a valid artefact: the process must stop at once
// with a non-zero status, and -out must still hold the artefact it held.
func TestInterruptKeepsArtefact(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes a full install in -short mode")
	}
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := run([]string{"-platform", "Gadi", "-quick", "-shapes", "40", "-out", path}, new(bytes.Buffer)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Without -quick and over three ops, this install takes over ten seconds.
	cmd := exec.Command(os.Args[0], "-platform", "Gadi", "-shapes", "300", "-ops", "gemm,syrk,syr2k", "-out", path)
	cmd.Env = append(os.Environ(), "ADSALA_TRAIN_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = new(bytes.Buffer), &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	time.Sleep(500 * time.Millisecond) // well into the timing sweep
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("install exited with %v after SIGINT, want a non-zero status (stderr: %s)", err, stderr.String())
		}
		if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() != syscall.SIGINT {
			t.Errorf("install killed by %v, want SIGINT", ws.Signal())
		}
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("install still running %v after SIGINT", time.Since(sent).Round(time.Millisecond))
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("-out changed though the install was interrupted")
	}
	if _, err := adsala.Load(path); err != nil {
		t.Errorf("-out no longer loads: %v", err)
	}
}
