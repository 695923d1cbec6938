package experiments

import (
	"fmt"
	"io"
	"repro/internal/ops"

	"repro/internal/sampling"
	"repro/internal/tabulate"
)

// Fig10 regenerates the speedup heatmaps (Fig 10a/10b): per-shape ADSALA
// speedups over the holdout, binned on √-scaled (m,k)/(m,n)/(k,n) axes.
func Fig10(w io.Writer, lab *Lab) error {
	for _, bed := range testbeds {
		res, holdout, ref, err := lab.evaluation(bed.name, 500, true)
		if err != nil {
			return err
		}
		speedups := speedupRow(res.Library, holdout, ref, lab.Scale.Iters)
		shapes := make([]sampling.Shape, len(speedups))
		// speedupRow preserves holdout order and only skips entries missing
		// the reference timing, which Gather never produces.
		for i := range speedups {
			shapes[i] = holdout[i].Shape
		}
		// Integerised tenths for the shared heat renderer.
		tenths := make([]int, len(speedups))
		accel := 0
		for i, s := range speedups {
			tenths[i] = int(s*10 + 0.5)
			if s > 1 {
				accel++
			}
		}
		fmt.Fprintf(w, "Fig 10 (%s): mean speedup x10 per sqrt-scaled bin (ref %d threads)\n",
			bed.name, ref)
		fmt.Fprintf(w, "accelerated shapes: %d/%d\n", accel, len(speedups))
		fmt.Fprintf(w, "[m x k]\n%s", renderHeat(shapes, tenths,
			func(s sampling.Shape) int { return s.M }, func(s sampling.Shape) int { return s.K }))
		fmt.Fprintf(w, "[k x n]\n%s", renderHeat(shapes, tenths,
			func(s sampling.Shape) int { return s.K }, func(s sampling.Shape) int { return s.N }))
	}
	fmt.Fprintln(w, "paper: most cells accelerate (red); large-n cells gain most on Setonix.")
	return nil
}

// gflopsOf converts a wall time to GFLOPS for a shape.
func gflopsOf(sh sampling.Shape, seconds float64) float64 {
	return float64(sh.Flops()) / seconds / 1e9
}

// figMemoryBuckets implements Figs 11 and 12: mean GFLOPS of max-thread vs
// ML-selected GEMM per 100 MB footprint bucket.
func figMemoryBuckets(w io.Writer, lab *Lab, platform string) error {
	res, holdout, ref, err := lab.evaluation(platform, 500, true)
	if err != nil {
		return err
	}
	// Aggregate per bucket: total FLOPs over total wall time, so a bucket's
	// GFLOPS reflects the time actually spent in it (the slow shapes the
	// thread selection rescues), not a mean dominated by its largest member.
	type acc struct {
		flops      float64
		tBase, tML float64
		n          int
	}
	buckets := make([]acc, 5)
	for _, st := range holdout {
		b := int(st.Shape.Bytes(4) / (100 * 1000 * 1000))
		if b > 4 {
			b = 4
		}
		base, _ := st.TimeAt(ref)
		choice := res.Library.OptimalThreadsOp(ops.GEMM, st.Shape.M, st.Shape.K, st.Shape.N)
		chosen, ok := st.TimeAt(choice)
		if !ok {
			continue
		}
		buckets[b].flops += float64(st.Shape.Flops())
		buckets[b].tBase += base
		buckets[b].tML += chosen + res.Library.EvalSeconds()/float64(lab.Scale.Iters)
		buckets[b].n++
	}
	vendor := blasName(platform)
	fmt.Fprintf(w, "Aggregate GFLOPS (FP32) by GEMM memory footprint — %s (%s baseline at %d threads)\n",
		platform, vendor, ref)
	tb := tabulate.New("bucket (MB)", "n", vendor+" max threads", vendor+" with ML", "ratio")
	labels := []string{"0-100", "100-200", "200-300", "300-400", "400-500"}
	for i, b := range buckets {
		if b.n == 0 || b.tBase == 0 || b.tML == 0 {
			tb.Row(labels[i], "0", ".", ".", ".")
			continue
		}
		base := b.flops / b.tBase / 1e9
		ml := b.flops / b.tML / 1e9
		tb.Row(labels[i], tabulate.D(b.n), tabulate.F(base, 1), tabulate.F(ml, 1), tabulate.F(ml/base, 2))
	}
	fmt.Fprint(w, tb.String())
	return nil
}

// Fig11 regenerates the Setonix GFLOPS-by-footprint comparison (Fig 11).
func Fig11(w io.Writer, lab *Lab) error {
	if err := figMemoryBuckets(w, lab, "Setonix"); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: ~30% gain in 0-100 MB, gain persists across buckets on Setonix.")
	return nil
}

// Fig12 regenerates the Gadi counterpart (Fig 12).
func Fig12(w io.Writer, lab *Lab) error {
	if err := figMemoryBuckets(w, lab, "Gadi"); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: ~30% gain in 0-100 MB, converging toward parity at larger footprints.")
	return nil
}

// figPredesigned implements Figs 13 and 14: GFLOPS of the default max-thread
// configuration vs ML selection over the predesigned sweep grids.
func figPredesigned(w io.Writer, lab *Lab, platform string) error {
	res, err := lab.Train(platform, 500, true)
	if err != nil {
		return err
	}
	sim, err := lab.Sim(platform, true)
	if err != nil {
		return err
	}
	max := sim.MaxThreads()

	fmt.Fprintf(w, "GFLOPS (FP32) on predesigned shapes — %s (%s default = %d threads)\n",
		platform, blasName(platform), max)
	tb := tabulate.New("family", "sweep", "default", "with ML", "ml threads", "speedup")
	grid := sampling.Predesigned()
	var worstDefault, bestSpeedup float64
	var bestCase string
	for _, pt := range grid {
		sh := pt.Shape
		tDef := sim.Measure(ops.GEMM, sh.M, sh.K, sh.N, max, lab.Scale.Iters)
		ml := res.Library.OptimalThreadsOp(ops.GEMM, sh.M, sh.K, sh.N)
		tML := sim.Measure(ops.GEMM, sh.M, sh.K, sh.N, ml, lab.Scale.Iters) + res.Library.EvalSeconds()/float64(lab.Scale.Iters)
		sp := tDef / tML
		if sp > bestSpeedup {
			bestSpeedup = sp
			bestCase = fmt.Sprintf("%s sweep=%d (%s)", pt.Family, pt.Sweep, sh)
		}
		if g := gflopsOf(sh, tDef); worstDefault == 0 || g < worstDefault {
			worstDefault = g
		}
		tb.Row(pt.Family, tabulate.D(pt.Sweep),
			tabulate.F(gflopsOf(sh, tDef), 1), tabulate.F(gflopsOf(sh, tML), 1),
			tabulate.D(ml), tabulate.F(sp, 2))
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintf(w, "largest speedup: %.1fx at %s; worst default GFLOPS: %.2f\n",
		bestSpeedup, bestCase, worstDefault)
	return nil
}

// Fig13 regenerates the Setonix predesigned-shape study (Fig 13).
func Fig13(w io.Writer, lab *Lab) error {
	if err := figPredesigned(w, lab, "Setonix"); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: speedups grow with the swept dimensions; k- or n-small families")
	fmt.Fprintln(w, "gain most, m-small families least.")
	return nil
}

// Fig14 regenerates the Gadi predesigned-shape study (Fig 14).
func Fig14(w io.Writer, lab *Lab) error {
	if err := figPredesigned(w, lab, "Gadi"); err != nil {
		return err
	}
	fmt.Fprintln(w, "paper: MKL's default performance is erratic on skinny shapes (sometimes")
	fmt.Fprintln(w, "<1 GFLOPS); ML reaches 33.9x and 81.6x on 64,64,4096 and 64,2048,64.")
	return nil
}
