// adsala-replay backtests trained artefacts against captured serving
// traffic: it streams a flight-recorder trace (written by
// `adsala-serve -trace <prefix>` or an in-process traced facade) through a
// candidate library offline — no daemon — and scores the candidate's
// decisions against the recorded ones.
//
// The report covers decision-agreement rate vs the recorded choices, a
// simulated decision-cache hit rate, per-op predicted-vs-measured residuals
// and model-predicted regret (for traces carrying measurement records), and
// latency tails — all computed in one constant-memory pass, so arbitrarily
// large traces replay in a fixed footprint. Records that captures of earlier
// daemons flag as synthetic warm-up traffic are skipped and counted.
//
// Usage:
//
//	adsala-replay -trace cap -lib gadi.adsala.json
//	adsala-replay -trace cap-00000.trace -lib retrained.json -baseline gadi.adsala.json -json
//	adsala-replay -trace cap -lib gadi.adsala.json -min-agreement 0.99
//	adsala-replay -trace cap -lib gadi.adsala.json -drift -drift-threshold 0.5
//
// -trace accepts a capture prefix (all `<prefix>-NNNNN.trace` rotations
// replay in order) or a single trace file. -baseline replays the same trace
// through a second artefact and reports both scores plus their deltas — the
// artefact-diff workflow for judging a retrained model on real traffic
// before promoting it. -min-agreement exits non-zero when the candidate's
// decision agreement falls below the threshold, making the tool
// self-asserting in CI.
//
// -drift additionally runs adsala-serve's online drift detector over the
// capture on the trace's own clock: the measurement records stream through
// the same windowed detector the daemon runs live (-drift-window,
// -drift-threshold, -drift-min-samples mirror the daemon's flags), and the
// report shows where it would have tripped — the offline threshold-tuning
// loop for the online monitor.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/replay"
	"repro/internal/trace"
)

// config is the parsed command line.
type config struct {
	tracePath    string
	libPath      string
	baselinePath string
	jsonOut      bool
	cacheSize    int
	minAgreement float64

	driftMode       bool
	driftWindow     time.Duration
	driftThreshold  float64
	driftMinSamples int64
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("adsala-replay", flag.ContinueOnError)
	fs.SetOutput(out)
	var cfg config
	fs.StringVar(&cfg.tracePath, "trace", "", "trace capture prefix or a single .trace file (required)")
	fs.StringVar(&cfg.libPath, "lib", "", "candidate library file written by adsala-train (required)")
	fs.StringVar(&cfg.baselinePath, "baseline", "", "second library to replay the same trace against and diff")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON")
	fs.IntVar(&cfg.cacheSize, "cache", 4096, "simulated decision cache capacity (match the recording daemon's -cache)")
	fs.Float64Var(&cfg.minAgreement, "min-agreement", -1, "exit non-zero when decision agreement falls below this fraction (negative disables)")
	fs.BoolVar(&cfg.driftMode, "drift", false, "also run the online drift detector over the capture on the trace's own clock")
	fs.DurationVar(&cfg.driftWindow, "drift-window", time.Minute, "drift detector sliding window")
	fs.Float64Var(&cfg.driftThreshold, "drift-threshold", 1.0, "drift trip point on |windowed mean residual_log2|")
	fs.Int64Var(&cfg.driftMinSamples, "drift-min-samples", 32, "minimum windowed residual count before an op can be flagged drifting")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.tracePath == "" {
		return cfg, fmt.Errorf("-trace is required")
	}
	if cfg.libPath == "" {
		return cfg, fmt.Errorf("-lib is required")
	}
	if cfg.minAgreement > 1 {
		return cfg, fmt.Errorf("-min-agreement must be <= 1, got %v", cfg.minAgreement)
	}
	return cfg, nil
}

// output is the full JSON document: the candidate's report, plus the
// baseline's and the deltas when -baseline is set.
type output struct {
	Schema    string         `json:"schema"`
	Lib       string         `json:"lib"`
	Candidate *replay.Report `json:"candidate"`
	Baseline  *replay.Report `json:"baseline,omitempty"`
	Diff      *diff          `json:"diff,omitempty"`
	// Drift is the online drift detector's report over the capture — the
	// exact detector adsala-serve runs live, driven by the trace's own
	// timestamps (-drift).
	Drift *drift.Report `json:"drift,omitempty"`
}

// diff is candidate minus baseline on the headline scores.
type diff struct {
	Agreement    float64            `json:"agreement"`
	CacheHitRate float64            `json:"cache_hit_rate"`
	RegretMean   map[string]float64 `json:"predicted_regret_mean_seconds,omitempty"`
	ResidualMean map[string]float64 `json:"residual_log2_mean,omitempty"`
}

func diffReports(cand, base *replay.Report) *diff {
	d := &diff{
		Agreement:    cand.Agreement - base.Agreement,
		CacheHitRate: cand.CacheHitRate - base.CacheHitRate,
	}
	for op, c := range cand.PerOp {
		b, ok := base.PerOp[op]
		if !ok {
			continue
		}
		if c.Measured > 0 && b.Measured > 0 {
			if d.RegretMean == nil {
				d.RegretMean = make(map[string]float64)
				d.ResidualMean = make(map[string]float64)
			}
			d.RegretMean[op] = c.PredictedRegretSeconds.Mean - b.PredictedRegretSeconds.Mean
			d.ResidualMean[op] = c.ResidualLog2.Mean - b.ResidualLog2.Mean
		}
	}
	return d
}

// runOne replays the trace through one library file.
func runOne(libPath string, files []string, cfg config) (*replay.Report, error) {
	lib, err := core.Load(libPath)
	if err != nil {
		return nil, err
	}
	return replay.Run(lib, files, replay.Config{CacheSize: cfg.cacheSize})
}

// printText renders one report as human-readable lines.
func printText(out io.Writer, label string, rep *replay.Report) {
	fmt.Fprintf(out, "%s:\n", label)
	fmt.Fprintf(out, "  trace: %d files, %d records", rep.Files, rep.Records)
	if rep.WarmupSkipped > 0 {
		fmt.Fprintf(out, " (%d warm-up skipped)", rep.WarmupSkipped)
	}
	if rep.DroppedBlocks > 0 || rep.DroppedBytes > 0 {
		fmt.Fprintf(out, " [recovered: %d blocks / %d bytes dropped]", rep.DroppedBlocks, rep.DroppedBytes)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  decisions: %d, agreement %.2f%%, simulated cache hit rate %.2f%%\n",
		rep.Decisions, rep.Agreement*100, rep.CacheHitRate*100)
	if rep.RecordedFallbacks > 0 || rep.ReplayFallbacks > 0 {
		fmt.Fprintf(out, "  fallbacks: %d recorded, %d replayed\n", rep.RecordedFallbacks, rep.ReplayFallbacks)
	}
	for op, or := range rep.PerOp {
		fmt.Fprintf(out, "  %s: %d decisions, agreement %.2f%%", op, or.Decisions, or.Agreement*100)
		if or.Measured > 0 {
			fmt.Fprintf(out, "; %d measured: regret mean %.3gs, residual log2 %.3f±%.3f, measured p99 %.3gs",
				or.Measured, or.PredictedRegretSeconds.Mean,
				or.ResidualLog2.Mean, or.ResidualLog2.Std, or.MeasuredLatency.P99)
		}
		fmt.Fprintln(out)
	}
	for _, c := range rep.Corrupt {
		fmt.Fprintf(out, "  corruption: %s\n", c)
	}
}

// printDrift renders the drift detector's report as human-readable lines.
func printDrift(out io.Writer, rep *drift.Report) {
	fmt.Fprintf(out, "drift (window %.0fs, threshold %.2f, min samples %d):\n",
		rep.WindowSeconds, rep.Threshold, rep.MinSamples)
	if rep.Degraded {
		fmt.Fprintf(out, "  DEGRADED at end of capture: %v\n", rep.DriftingOps)
	} else {
		fmt.Fprintf(out, "  healthy at end of capture (%d measurements scored)\n", rep.Observed)
	}
	for op, od := range rep.PerOp {
		fmt.Fprintf(out, "  %s: %d measured", op, od.Measured)
		if od.Unpredicted > 0 {
			fmt.Fprintf(out, " (%d unpredicted)", od.Unpredicted)
		}
		fmt.Fprintf(out, ", windowed residual log2 %.3f±%.3f over %d samples",
			od.ResidualLog2.Mean, od.ResidualLog2.Std, od.ResidualLog2.Count)
		if od.Drifting {
			fmt.Fprintf(out, " DRIFTING")
		}
		fmt.Fprintln(out)
		for _, b := range []string{"small", "medium", "large"} {
			bd, ok := od.Buckets[b]
			if !ok {
				continue
			}
			fmt.Fprintf(out, "    %s: %d samples, windowed residual log2 %.3f±%.3f",
				b, bd.Samples, bd.ResidualLog2.Mean, bd.ResidualLog2.Std)
			if bd.Drifting {
				fmt.Fprintf(out, " DRIFTING")
			}
			fmt.Fprintln(out)
		}
	}
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args, out)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	files, err := trace.Files(cfg.tracePath)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no trace files match %q (expected a file or a `%s-NNNNN.trace` prefix)",
			cfg.tracePath, cfg.tracePath)
	}

	doc := output{Schema: "adsala/replay/v1", Lib: cfg.libPath}
	doc.Candidate, err = runOne(cfg.libPath, files, cfg)
	if err != nil {
		return err
	}
	if cfg.baselinePath != "" {
		doc.Baseline, err = runOne(cfg.baselinePath, files, cfg)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		doc.Diff = diffReports(doc.Candidate, doc.Baseline)
	}
	if cfg.driftMode {
		lib, err := core.Load(cfg.libPath)
		if err != nil {
			return err
		}
		doc.Drift, err = replay.DriftRun(lib, files, drift.Config{
			Window:     cfg.driftWindow,
			Threshold:  cfg.driftThreshold,
			MinSamples: cfg.driftMinSamples,
		})
		if err != nil {
			return fmt.Errorf("drift: %w", err)
		}
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		printText(out, cfg.libPath, doc.Candidate)
		if doc.Baseline != nil {
			printText(out, cfg.baselinePath+" (baseline)", doc.Baseline)
			fmt.Fprintf(out, "diff (candidate - baseline): agreement %+.2f%%, cache hit rate %+.2f%%\n",
				doc.Diff.Agreement*100, doc.Diff.CacheHitRate*100)
		}
		if doc.Drift != nil {
			printDrift(out, doc.Drift)
		}
	}

	if cfg.minAgreement >= 0 && doc.Candidate.Agreement < cfg.minAgreement {
		return fmt.Errorf("decision agreement %.4f below -min-agreement %.4f",
			doc.Candidate.Agreement, cfg.minAgreement)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adsala-replay: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
