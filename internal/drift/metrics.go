package drift

import (
	"repro/internal/obs"
	"repro/internal/ops"
)

// RegisterMetrics attaches the monitor's surface to a Prometheus registry.
// Everything hot-path is already recorded on the monitor itself; this only
// wires scrape-time views (windowed means are recomputed per scrape at the
// scrape's own clock), so it is safe after traffic has started and
// idempotent per registry.
func (m *Monitor) RegisterMetrics(r *obs.Registry) {
	for i := range m.perOp {
		op := ops.Op(i)
		a := &m.perOp[i]
		lbl := obs.L("op", op.String())
		r.CounterFunc("adsala_drift_observed_total",
			"Measured-prediction pairs folded into the drift monitor.",
			counterView(&a.measured), lbl)
		r.CounterFunc("adsala_drift_unpredicted_total",
			"Measurements observed without a predicted label (no model for the op).",
			counterView(&a.unpredicted), lbl)
		r.RegisterHistogram("adsala_kernel_measured_seconds",
			"Measured kernel wall time from the measured-prediction stream.",
			a.measuredLat, lbl)
		r.RegisterHistogram("adsala_kernel_predicted_seconds",
			"Model-predicted kernel wall time paired with each measurement.",
			a.predictedLat, lbl)
		r.GaugeFunc("adsala_drift_op_drifting",
			"1 when any of the op's shape buckets trips the drift threshold.",
			func() float64 {
				now := m.nowNanos()
				for b := 0; b < numBuckets; b++ {
					if m.isDrifting(m.cellFor(op, b).residual.MomentsAt(now)) {
						return 1
					}
				}
				return 0
			}, lbl)
		for b := 0; b < numBuckets; b++ {
			c := m.cellFor(op, b)
			bl := obs.L("bucket", bucketNames[b])
			r.GaugeFunc("adsala_drift_residual_log2_mean",
				"Windowed mean of log2(predicted/measured) per op and shape bucket.",
				func() float64 {
					mo := c.residual.MomentsAt(m.nowNanos())
					return mo.Mean()
				}, lbl, bl)
			r.GaugeFunc("adsala_drift_abs_rel_err_mean",
				"Windowed mean of |predicted-measured|/measured per op and shape bucket.",
				func() float64 {
					mo := c.absRel.MomentsAt(m.nowNanos())
					return mo.Mean()
				}, lbl, bl)
			r.GaugeFunc("adsala_drift_window_samples",
				"Residual observations currently inside the sliding window.",
				func() float64 {
					mo := c.residual.MomentsAt(m.nowNanos())
					return float64(mo.Count())
				}, lbl, bl)
		}
	}
	r.GaugeFunc("adsala_drift_degraded",
		"1 when any op's windowed residual exceeds the drift threshold.",
		func() float64 {
			if m.Degraded() {
				return 1
			}
			return 0
		})
	r.GaugeFunc("adsala_drift_window_seconds",
		"Configured sliding-window span of the drift monitor.",
		m.windowSeconds)
	r.GaugeFunc("adsala_drift_threshold_log2",
		"Configured drift threshold on |windowed mean residual_log2|.",
		func() float64 { return m.cfg.Threshold })
}

// counterView adapts a monitor atomic into a scrape-time counter reader.
func counterView(v interface{ Load() int64 }) func() float64 {
	return func() float64 { return float64(v.Load()) }
}
