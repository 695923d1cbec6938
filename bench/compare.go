package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// verdict compares set B's values of one metric against set A's. worse is
// how much worse B's median is as a share of A's (negative: better);
// spread is the wider of the two sets' own quartile spreads. A spread
// beyond the bound leaves the metric unresolved — neither unchanged nor
// breached — unless every run of B reads better than every run of A.
func verdict(a, b []float64, higher bool, bound float64) (medA, medB, worse, spread float64, v string) {
	medA, medB = median(append([]float64(nil), a...)), median(append([]float64(nil), b...))
	worse = (medB - medA) / medA
	if higher {
		worse = -worse
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > bound && !allBetter(a, b, higher):
		v = verdictUnresolved
	case worse > bound:
		v = verdictBreach
	default:
		v = verdictOK
	}
	return
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, higher bool) bool {
	for _, x := range a {
		for _, y := range b {
			if higher && y <= x || !higher && y >= x {
				return false
			}
		}
	}
	return true
}

func readSet(path string) (*resultSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var errBreach = errors.New("an end-to-end metric is worse than its bound allows")

// compareFiles prints every end-to-end metric of every workload with both
// sets' medians, the relative difference and its bound, and returns
// errBreach when one is breached.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "# WARNING: the sets differ in machine or run length: %+v (%gs) against %+v (%gs)\n", a.Env, a.Seconds, b.Env, b.Seconds)
	}
	fmt.Fprintf(w, "# A: %s commit %s, B: %s commit %s\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-22s %-12s %-4s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "unit", "median A", "median B", "B worse", "spread", "bound", "verdict")
	breaches, unresolved := 0, 0
	for _, name := range workloadNames {
		for _, e := range endToEnd {
			xa, xb := a.values(name, e.name), b.values(name, e.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			medA, medB, worse, spread, v := verdict(xa, xb, e.higher, e.bound)
			switch v {
			case verdictBreach:
				breaches++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-22s %-12s %-4s %14.6g %14.6g %+8.2f%% %7.2f%% %6.0f%%  %s\n",
				name, e.name, e.unit, medA, medB, 100*worse, 100*spread, 100*e.bound, v)
		}
	}
	fmt.Fprintf(w, "# %d breached, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return errBreach
	}
	return nil
}
