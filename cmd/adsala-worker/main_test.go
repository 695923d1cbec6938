package main

import (
	"context"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gather"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", ":9191", "-sim", "-name", "w7", "-pprof"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":9191" || !cfg.sim || cfg.name != "w7" || !cfg.pprof {
		t.Errorf("parsed %+v", cfg)
	}
	// Units run one at a time; a command line still asking for more fails
	// and names the flag instead of being silently accepted.
	if _, err := parseFlags([]string{"-sim", "-concurrency", "2"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-concurrency") {
		t.Errorf("retired flag: err = %v, want an error naming -concurrency", err)
	}
	// A unit's result is its /work answer, so there is nothing to linger for.
	if _, err := parseFlags([]string{"-sim", "-linger", "10s"}, io.Discard); err == nil || !strings.Contains(err.Error(), "-linger") {
		t.Errorf("retired flag: err = %v, want an error naming -linger", err)
	}
	if _, err := parseFlags([]string{"-h"}, io.Discard); err == nil {
		t.Error("help should surface flag.ErrHelp")
	}
}

// lockedBuilder is a strings.Builder the daemon's goroutines (listener,
// handlers, drain) may log into at once, as they do into os.Stdout.
type lockedBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuilder) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuilder) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunServesSweep boots the daemon on a loopback port and drives one
// distributed gather against it end to end.
func TestRunServesSweep(t *testing.T) {
	addr := "127.0.0.1:39417"
	var out lockedBuilder
	errc := make(chan error, 1)
	go func() { errc <- run([]string{"-addr", addr, "-sim"}, &out) }()

	spec := simtime.SimSpec("Gadi", 3, true)
	gcfg := core.GatherConfig{
		Domain:     sampling.DefaultDomain().WithCapMB(100),
		NumShapes:  6,
		Candidates: []int{1, 4, 16},
		Iters:      2,
		Seed:       3,
		Op:         ops.GEMM,
	}
	coord := gather.New(gather.Config{Workers: []string{addr}, Timer: spec})

	// The daemon needs a moment to bind; retry the gather briefly.
	var (
		got []core.ShapeTimings
		err error
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err = coord.Gather(context.Background(), gcfg)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("gather against the daemon: %v (output: %s)", err, out.String())
	}
	if len(got) != 6 {
		t.Fatalf("gathered %d shapes, want 6", len(got))
	}

	timer, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	gcfg.Timer = timer
	want, err := core.LocalGatherer{}.Gather(context.Background(), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Shape != want[i].Shape {
			t.Fatalf("shape %d = %v, want %v", i, got[i].Shape, want[i].Shape)
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	default:
	}

	// SIGTERM drains the daemon and releases the port (so the test can
	// re-run in the same process, e.g. under -count=2).
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain on SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
	if !strings.Contains(out.String(), "draining") {
		t.Errorf("drain not reported: %q", out.String())
	}
}
