// Command bench is the repository's one benchmark: five workloads over the
// BLAS facade and the decision-serving daemon, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames)+", or all (one child process per run)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated shapes; the program never sees it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	runs := flag.Int("runs", 1, "with -workload all: untraced runs per workload, on seeds seed, seed+1, ...")
	flag.StringVar(&cfg.out, "out", "", "directory for trace-<workload>.json (traced runs) and set.json (-workload all)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "shrink set-up and counts: checks the output's shape, measures nothing")
	compare := flag.Bool("compare", false, "compare two set files: bench -compare A.json B.json")
	flag.Parse()
	cfg.traced = *trace != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two set files, got %d arguments", flag.NArg())
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case cfg.workload == "all":
		err = runAll(cfg, *runs)
	default:
		var res *result
		if res, err = runOne(cfg); err == nil {
			res.print(os.Stdout, cfg)
			if !res.Correct {
				err = fmt.Errorf("%d of %d operations and checks failed", res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// print writes every metric by name with its unit and sample count, the
// failed checks, and as the last line the result as one JSON object.
func (r *result) print(w io.Writer, cfg runConfig) {
	e := r.env
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g traced=%t callers=%d (closed loop) gomaxprocs=%d nproc=%d cpu=%q go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.traced, r.callers, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, e.Commit)
	fmt.Fprintf(w, "# %s\n", e.Note)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-42s %16.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%-42s %16.6g %-8s n=%d\n", "fail_ratio", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	for _, msg := range r.errs {
		fmt.Fprintln(w, "check failed:", msg)
	}
	blob, _ := json.Marshal(r) // numbers, strings and a bool always encode
	fmt.Fprintf(w, "%s\n", blob)
}

// runRecord is one run as a set file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

// resultSet is what -workload all collects and -compare reads: every run
// of one commit on one machine.
type resultSet struct {
	Env     environment `json:"env"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload, each run in a child process of its own (so
// set-up time and peak memory are one run's): `runs` untraced runs on
// consecutive seeds, then one traced run. It prints each child's output,
// then the spread of every end-to-end metric, and with -out writes set.json.
func runAll(cfg runConfig, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return err
		}
	}
	set := resultSet{Env: readEnvironment(), Seconds: cfg.seconds}
	incorrect := 0
	for _, name := range workloadNames {
		for i := 0; i <= runs; i++ {
			rec, trace := runRecord{Workload: name, Seed: cfg.seed + int64(i)}, "0"
			if i == runs {
				rec.Seed, rec.Traced, trace = cfg.seed, true, "1"
			}
			args := []string{"-workload", name, "-seed", strconv.FormatInt(rec.Seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.out}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			var stdout bytes.Buffer
			child := exec.Command(exe, args...)
			child.Stdout, child.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
			runErr := child.Run() // a failed check still prints its result
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: no result (%v): %w", name, rec.Seed, runErr, err)
			}
			if !rec.Correct {
				incorrect++
			}
			set.Runs = append(set.Runs, rec)
		}
	}
	fmt.Println()
	set.printSpreads(os.Stdout)
	if cfg.out != "" {
		blob, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(cfg.out, "set.json"), blob, 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed a check", incorrect)
	}
	return nil
}

// values returns one metric of one workload over the set's untraced runs.
func (s *resultSet) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printSpreads prints, per workload and end-to-end metric, the median over
// the set's runs and their quartile spread beside the metric's bound.
func (s *resultSet) printSpreads(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-12s %4s %14s %9s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, name := range workloadNames {
		for _, e := range endToEnd {
			xs := s.values(name, e.name)
			if len(xs) == 0 {
				continue
			}
			spread := quartileSpread(xs)
			fmt.Fprintf(w, "%-22s %-12s %4d %14.6g %8.2f%% %6.0f%%\n", name, e.name, len(xs), median(xs), 100*spread, 100*e.bound)
		}
	}
}
