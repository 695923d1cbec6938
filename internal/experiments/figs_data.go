package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/features"
	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/preprocess"
	"repro/internal/sampling"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/tabulate"
)

// measuredOptimal scans every candidate for the measured argmin.
func measuredOptimal(sim *simtime.Simulator, sh sampling.Shape, candidates []int, iters int) (int, float64) {
	best, bt := candidates[0], math.Inf(1)
	for _, p := range candidates {
		if t := sim.Measure(ops.GEMM, sh.M, sh.K, sh.N, p, iters); t < bt {
			best, bt = p, t
		}
	}
	return best, bt
}

// optimalThreadSample collects measured-optimal thread counts over a Halton
// sample of the domain.
func optimalThreadSample(lab *Lab, platform string, capMB, n int, filter func(sampling.Shape) bool) ([]int, []sampling.Shape, error) {
	sim, err := lab.Sim(platform, true)
	if err != nil {
		return nil, nil, err
	}
	sampler, err := sampling.NewSampler(sampling.DefaultDomain().WithCapMB(capMB), lab.Scale.Seed+13)
	if err != nil {
		return nil, nil, err
	}
	cands := allThreadCounts(sim.MaxThreads())
	var optima []int
	var shapes []sampling.Shape
	for len(optima) < n {
		sh := sampler.Next()
		if filter != nil && !filter(sh) {
			continue
		}
		opt, _ := measuredOptimal(sim, sh, cands, lab.Scale.Iters)
		optima = append(optima, opt)
		shapes = append(shapes, sh)
	}
	return optima, shapes, nil
}

// allThreadCounts enumerates 1..max stepped to keep sweeps tractable while
// preserving the histogram resolution of Figs 1/8.
func allThreadCounts(max int) []int {
	var out []int
	step := 1
	for p := 1; p <= max; p += step {
		out = append(out, p)
		switch {
		case p >= 128:
			step = 16
		case p >= 48:
			step = 8
		case p >= 16:
			step = 4
		case p >= 8:
			step = 2
		}
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Fig1 regenerates the histogram of optimal thread counts on Gadi for GEMMs
// within 100 MB (Fig 1): the mass must sit well below the 48-core default.
func Fig1(w io.Writer, lab *Lab) error {
	n := lab.Scale.HoldoutShapes * 2
	optima, _, err := optimalThreadSample(lab, "Gadi", 100, n, nil)
	if err != nil {
		return err
	}
	xs := make([]float64, len(optima))
	below := 0
	for i, o := range optima {
		xs[i] = float64(o)
		if o < 48 {
			below++
		}
	}
	fmt.Fprintf(w, "Fig 1: optimal thread count histogram — Gadi, SGEMM <= 100 MB, %d samples\n", n)
	h := stats.NewHistogram(xs, 16, 0, 96)
	fmt.Fprint(w, h.Render(50))
	fmt.Fprintf(w, "shapes with optimum below the 48-core default: %d/%d (%.0f%%)\n",
		below, n, 100*float64(below)/float64(n))
	fmt.Fprintf(w, "paper: the bulk of optima sit well below the core count\n")
	return nil
}

// Fig8 regenerates the Setonix histogram for shapes with min(m,k,n) < 1000
// within 500 MB (Fig 8): optima concentrate below half the 256 threads.
func Fig8(w io.Writer, lab *Lab) error {
	n := lab.Scale.HoldoutShapes * 2
	optima, _, err := optimalThreadSample(lab, "Setonix", 500, n, func(s sampling.Shape) bool {
		return s.MinDim() < 1000
	})
	if err != nil {
		return err
	}
	xs := make([]float64, len(optima))
	belowHalf := 0
	for i, o := range optima {
		xs[i] = float64(o)
		if o < 128 {
			belowHalf++
		}
	}
	fmt.Fprintf(w, "Fig 8: optimal threads, Setonix <= 500 MB, min(m,k,n) < 1000, %d samples\n", n)
	h := stats.NewHistogram(xs, 16, 0, 256)
	fmt.Fprint(w, h.Render(50))
	fmt.Fprintf(w, "optima below half the maximum (128): %d/%d (%.0f%%)\n",
		belowHalf, n, 100*float64(belowHalf)/float64(n))
	return nil
}

// Fig4 regenerates the feature-distribution study (Fig 4): skewness of each
// Table II feature before and after the fitted Yeo-Johnson transform, on a
// Setonix 500 MB sample.
func Fig4(w io.Writer, lab *Lab) error {
	sampler, err := sampling.NewSampler(sampling.DefaultDomain(), lab.Scale.Seed)
	if err != nil {
		return err
	}
	sim, err := lab.Sim("Setonix", true)
	if err != nil {
		return err
	}
	n := lab.Scale.TrainShapes
	var recs []features.Record
	for i := 0; i < n; i++ {
		sh := sampler.Next()
		recs = append(recs, features.Record{
			Shape: sh, Threads: 128,
			Seconds: sim.Measure(ops.GEMM, sh.M, sh.K, sh.N, 128, lab.Scale.Iters),
		})
	}
	d := features.Build(recs)

	fmt.Fprintf(w, "Fig 4: feature skewness before/after Yeo-Johnson — Setonix <= 500 MB, %d samples\n", n)
	tb := tabulate.New("feature", "lambda", "skew before", "skew after")
	for j, col := range d.Cols {
		vals := make([]float64, d.Len())
		for i, row := range d.X {
			vals[i] = row[j]
		}
		yj, err := preprocess.FitYeoJohnson(vals)
		if err != nil {
			return err
		}
		trans := make([]float64, len(vals))
		for i, v := range vals {
			trans[i] = yj.Transform(v)
		}
		tb.Row(col, tabulate.F(yj.Lambda, 3), tabulate.F(stats.Skewness(vals), 2), tabulate.F(stats.Skewness(trans), 2))
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "paper: skewed raw features remap to near-Gaussian (|skew| shrinking toward 0)\n")
	return nil
}

// Fig7 regenerates the affinity comparison (Fig 7): mean GEMM duration vs
// thread count under core-based and thread-based OMP_PLACES on both
// platforms, over a 500 MB sample.
func Fig7(w io.Writer, lab *Lab) error {
	fmt.Fprintf(w, "Fig 7: thread affinity comparison (mean GEMM duration, microseconds)\n")
	for _, bed := range testbeds {
		sampler, err := sampling.NewSampler(sampling.DefaultDomain(), lab.Scale.Seed+3)
		if err != nil {
			return err
		}
		nShapes := lab.Scale.HoldoutShapes
		shapes := sampler.Sample(nShapes)

		// The install's simulator, and the same one under thread-based
		// placement.
		coreSim, err := lab.Sim(bed.name, true)
		if err != nil {
			return err
		}
		cfg := coreSim.Config()
		cfg.Policy = machine.ThreadBased
		threadSim := simtime.New(cfg)

		max := coreSim.MaxThreads()
		counts := []int{2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256}
		tb := tabulate.New("threads", "core-based", "thread-based", "core wins")
		crossover := -1
		for _, th := range counts {
			if th > max {
				break
			}
			var sumC, sumT float64
			for _, sh := range shapes {
				sumC += coreSim.Measure(ops.GEMM, sh.M, sh.K, sh.N, th, lab.Scale.Iters)
				sumT += threadSim.Measure(ops.GEMM, sh.M, sh.K, sh.N, th, lab.Scale.Iters)
			}
			meanC := sumC / float64(nShapes) * 1e6
			meanT := sumT / float64(nShapes) * 1e6
			wins := "yes"
			if meanC >= meanT {
				wins = "no"
				if crossover < 0 {
					crossover = th
				}
			}
			tb.Row(tabulate.D(th), tabulate.F(meanC, 1), tabulate.F(meanT, 1), wins)
		}
		fmt.Fprintf(w, "-- %s --\n%s", bed.name, tb.String())
	}
	fmt.Fprintf(w, "paper: core-based affinity is faster below ~half the hardware threads,\n")
	fmt.Fprintf(w, "converging to parity at full occupancy; the paper adopts core-based.\n")
	return nil
}

// Fig9 regenerates the optimal-thread heatmaps (Fig 9a/9b) as √-scaled 2-D
// grids over (m, k), (m, n) and (k, n) with the mean optimum per cell.
func Fig9(w io.Writer, lab *Lab) error {
	for _, bed := range testbeds {
		n := lab.Scale.HoldoutShapes * 2
		optima, shapes, err := optimalThreadSample(lab, bed.name, 500, n, nil)
		if err != nil {
			return err
		}
		sim, err := lab.Sim(bed.name, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Fig 9 (%s): mean optimal threads per sqrt-scaled bin, %d samples (max %d)\n",
			bed.name, n, sim.MaxThreads())
		pairs := []struct {
			label string
			xa    func(sampling.Shape) int
			xb    func(sampling.Shape) int
		}{
			{"m x k", func(s sampling.Shape) int { return s.M }, func(s sampling.Shape) int { return s.K }},
			{"m x n", func(s sampling.Shape) int { return s.M }, func(s sampling.Shape) int { return s.N }},
			{"k x n", func(s sampling.Shape) int { return s.K }, func(s sampling.Shape) int { return s.N }},
		}
		for _, pr := range pairs {
			fmt.Fprintf(w, "[%s]\n", pr.label)
			fmt.Fprint(w, renderHeat(shapes, optima, pr.xa, pr.xb))
		}
	}
	fmt.Fprintf(w, "paper: larger/squarer cells trend toward high counts; small cells stay low.\n")
	return nil
}

// renderHeat bins shapes on sqrt-scaled axes (4 bins each to 74k) and prints
// the mean of vals per cell.
func renderHeat(shapes []sampling.Shape, vals []int, xa, xb func(sampling.Shape) int) string {
	const bins = 4
	const maxDim = 74000.0
	sum := [bins][bins]float64{}
	cnt := [bins][bins]int{}
	binOf := func(v int) int {
		b := int(math.Sqrt(float64(v)/maxDim) * bins)
		if b >= bins {
			b = bins - 1
		}
		return b
	}
	for i, sh := range shapes {
		sum[binOf(xa(sh))][binOf(xb(sh))] += float64(vals[i])
		cnt[binOf(xa(sh))][binOf(xb(sh))]++
	}
	edges := []string{"0-4.6k", "4.6-18k", "18-42k", "42-74k"}
	tb := tabulate.New(append([]string{""}, edges...)...)
	for a := 0; a < bins; a++ {
		row := []string{edges[a]}
		for b := 0; b < bins; b++ {
			if cnt[a][b] == 0 {
				row = append(row, ".")
			} else {
				row = append(row, tabulate.F(sum[a][b]/float64(cnt[a][b]), 0))
			}
		}
		tb.Row(row...)
	}
	return tb.String()
}
