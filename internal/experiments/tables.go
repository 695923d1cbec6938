package experiments

import (
	"fmt"
	"io"
	"repro/internal/ops"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

// Table3 regenerates the Setonix model-comparison table (Table III).
func Table3(w io.Writer, lab *Lab) error {
	return modelTable(w, lab, "Setonix",
		"paper: XGBoost wins (est. mean 1.50); linear models are fast but inaccurate;\n"+
			"Random Forest is accurate but its evaluation latency sinks the speedup.")
}

// Table4 regenerates the Gadi model-comparison table (Table IV).
func Table4(w io.Writer, lab *Lab) error {
	return modelTable(w, lab, "Gadi",
		"paper: XGBoost wins again (est. mean 1.06-1.07); margins are thinner on 48 cores.")
}

func modelTable(w io.Writer, lab *Lab, platform, paperNote string) error {
	p, err := PlatformByName(platform)
	if err != nil {
		return err
	}
	res, err := lab.Train(p, 500, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table for %s (<= 500 MB, %d shapes, reference %d threads)\n",
		platform, lab.Scale.TrainShapes, p.RefThreads)
	fmt.Fprint(w, core.RenderReport(res.Reports))
	fmt.Fprintf(w, "selected model: %s\n%s\n", res.Library.ModelKind(), paperNote)
	return nil
}

// speedupRow evaluates the trained library over a holdout sweep and returns
// per-shape speedups vs the reference thread count, including model
// evaluation latency amortised over the iters-iteration timing loop of
// §V-B.3 (the prediction cache of §III-C fires on every repeat).
func speedupRow(lib *core.Library, holdout []core.ShapeTimings, refThreads, iters int) []float64 {
	if iters < 1 {
		iters = 1
	}
	evalSec := lib.EvalSeconds() / float64(iters)
	var out []float64
	for _, st := range holdout {
		ref, ok := st.TimeAt(refThreads)
		if !ok {
			continue
		}
		choice := lib.OptimalThreadsOp(ops.GEMM, st.Shape.M, st.Shape.K, st.Shape.N)
		chosen, ok := st.TimeAt(choice)
		if !ok {
			continue
		}
		out = append(out, ref/(chosen+evalSec))
	}
	return out
}

// speedupStats runs the Table V/VI protocol for one hyper-threading setting.
func speedupStats(w io.Writer, lab *Lab, ht bool, title, paperNote string) error {
	fmt.Fprintln(w, title)
	tb := tabulate.New("statistic", "Setonix 0-500", "Setonix 0-100", "Gadi 0-500", "Gadi 0-100")
	cols := make([][]float64, 0, 4)
	for _, p := range Platforms() {
		// The 0-100 MB column uses a dedicated 100 MB-capped install run and
		// holdout, matching the paper's per-range experiments (Fig 1 and the
		// abstract quote both come from dedicated <= 100 MB datasets).
		for _, capMB := range []int{500, 100} {
			res, err := lab.Train(p, capMB, ht)
			if err != nil {
				return err
			}
			holdout, err := lab.Holdout(p, capMB, ht)
			if err != nil {
				return err
			}
			cols = append(cols, speedupRow(res.Library, holdout, p.RefThreads, lab.Scale.Iters))
		}
	}
	summaries := make([]stats.Summary, len(cols))
	for i, c := range cols {
		summaries[i] = stats.Describe(c)
	}
	row := func(name string, get func(stats.Summary) float64) {
		cells := []string{name}
		for _, s := range summaries {
			cells = append(cells, tabulate.F(get(s), 2))
		}
		tb.Row(cells...)
	}
	row("Mean Speedup", func(s stats.Summary) float64 { return s.Mean })
	row("Standard Deviation", func(s stats.Summary) float64 { return s.Std })
	row("Min Speedup", func(s stats.Summary) float64 { return s.Min })
	row("25th Percentile", func(s stats.Summary) float64 { return s.P25 })
	row("50th Percentile", func(s stats.Summary) float64 { return s.Median })
	row("75th Percentile", func(s stats.Summary) float64 { return s.P75 })
	row("Max Speedup", func(s stats.Summary) float64 { return s.Max })
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, paperNote)
	return nil
}

// Table5 regenerates the hyper-threaded speedup statistics (Table V).
func Table5(w io.Writer, lab *Lab) error {
	return speedupStats(w, lab, true,
		fmt.Sprintf("Table V: ADSALA speedup statistics with hyper-threading (%d-shape holdout)", lab.Scale.HoldoutShapes),
		"paper: means 1.32/1.41 (Setonix) and 1.07/1.26 (Gadi); 0-100 MB beats 0-500 MB\n"+
			"at every percentile; Setonix beats Gadi throughout.")
}

// Table6 regenerates the no-hyper-threading statistics (Table VI).
func Table6(w io.Writer, lab *Lab) error {
	return speedupStats(w, lab, false,
		fmt.Sprintf("Table VI: ADSALA speedup statistics, hyper-threading off (%d-shape holdout)", lab.Scale.HoldoutShapes),
		"paper: largely similar to Table V, with slightly lower means at 0-500 MB and\n"+
			"higher spread; the method does not depend on SMT.")
}

// Table7 regenerates the profiling breakdown (Table VII): wall-time
// decomposition of two skinny GEMMs at max threads vs the ML-chosen count
// on Gadi, scaled to the paper's 1000 repetitions.
func Table7(w io.Writer, lab *Lab) error {
	p, _ := PlatformByName("Gadi")
	res, err := lab.Train(p, 500, true)
	if err != nil {
		return err
	}
	sim := lab.Sim(p, true)
	const reps = 1000
	cases := [][3]int{{64, 2048, 64}, {64, 64, 4096}}
	fmt.Fprintf(w, "Table VII: time breakdown on Gadi, %d repetitions (seconds)\n", reps)
	tb := tabulate.New("m,k,n", "config", "threads", "total", "sync+spawn", "kernel", "copy")
	for _, c := range cases {
		m, k, n := c[0], c[1], c[2]
		ml := res.Library.OptimalThreadsOp(ops.GEMM, m, k, n)
		for _, cfg := range []struct {
			label   string
			threads int
		}{{"no ML", 96}, {"with ML", ml}} {
			b := sim.Breakdown(m, k, n, cfg.threads)
			tb.Row(
				fmt.Sprintf("%d,%d,%d", m, k, n), cfg.label, tabulate.D(cfg.threads),
				tabulate.F(b.Total()*reps, 3), tabulate.F((b.Sync+b.Spawn)*reps, 3),
				tabulate.F(b.Kernel*reps, 3), tabulate.F(b.Copy*reps, 3),
			)
		}
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "paper: ML picks 14 threads for 64,2048,64 and 1 for 64,64,4096; at max")
	fmt.Fprintln(w, "threads the data copy dominates; with ML all three components collapse.")
	return nil
}
