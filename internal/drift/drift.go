// Package drift is the online model-quality monitor: a constant-memory
// observer over the serving engine's measured-prediction stream. Every
// executed kernel call whose wall time reaches Engine.RecordMeasured — from
// the in-process BLAS facade or the daemon's POST /measured ingestion — is
// free labelled data: the model predicted a runtime, the machine produced
// one. The monitor folds each pair into per-op, shape-bucketed sliding
// windows of the same residual statistics adsala-replay computes offline
// (residual_log2 = log2(predicted/measured), abs_rel_err =
// |predicted−measured|/measured), so the online numbers and a replay of the
// same capture are directly comparable — and drift becomes visible the
// moment it happens instead of at the next manual backtest.
//
// Shapes bucket into small/medium/large by the op's FLOP count at the
// observed triple (the registry's cost weight), because drift is rarely
// uniform: co-tenancy hits large kernels first, frequency scaling hits
// small ones. Each (op, bucket) cell is a ring of slots sub-windows of
// obs.Moments behind the cell's own mutex; the observe path takes that lock
// once — 0 allocs/op, pinned by AllocsPerRun and the adsala-vet zeroalloc
// analyzer — so it can sit directly on the engine's measured hot path.
//
// A cell is "drifting" when its window holds at least MinSamples residuals
// and the windowed |mean residual_log2| exceeds Threshold (log2 units: 1.0
// means predictions are off by 2× on average). Any drifting cell marks its
// op drifting; any drifting op marks the monitor degraded — which
// /healthz surfaces as "degraded": true with the offending ops while
// readiness stays 200 (degraded, not down: the daemon still serves, the
// model is just stale). Thresholds are tuned offline by running the same
// detector over a capture with adsala-replay -drift.
package drift

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logx"
	"repro/internal/obs"
	"repro/internal/ops"
)

// Schema is the versioned identifier of the /drift JSON report.
const Schema = "adsala/drift/v1"

// Shape buckets: FLOP count of the op at the observed triple, using the
// same decade thresholds family as the engine's heuristic size clamp but
// shifted up to kernel-scale work (a 512³ GEMM is ~2.7e8 FLOPs — medium).
const (
	bucketSmall = iota
	bucketMedium
	bucketLarge
	numBuckets

	smallFlops  = 1e8
	mediumFlops = 1e10
)

// bucketNames are the bucket label values, indexed by bucket.
var bucketNames = [numBuckets]string{"small", "medium", "large"}

// slots is the number of mergeable sub-windows per window; eviction
// granularity is Window/slots.
const slots = 8

// Config tunes a Monitor. The zero value selects the defaults.
type Config struct {
	// Window is the sliding-window span of the residual statistics
	// (default 1m).
	Window time.Duration
	// Threshold is the drift trip point on |windowed mean residual_log2|
	// (default 1.0 — predictions off by 2× on average).
	Threshold float64
	// MinSamples is the minimum residual count a window needs before it
	// can trip (default 32); sparse traffic must not flap the health body.
	MinSamples int64
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Threshold <= 0 {
		c.Threshold = 1
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	return c
}

// cell is one (op, bucket) sliding-window aggregation: a ring of slots
// sub-windows, each the residual and abs-rel-err Moments of the
// observations whose timestamp falls in it. epoch[i] is the 1-based
// sub-window index slot i holds (0 = never used); an observation for a newer
// sub-window recycles its slot in place. mu guards every field.
type cell struct {
	mu       sync.Mutex
	samples  int64 // cumulative measurements routed here
	epoch    [slots]int64
	residual [slots]obs.Moments
	absRel   [slots]obs.Moments
}

// observe folds one observation into sub-window e. withResidual is false
// for a measurement without a predicted label: it counts into the abs-rel
// window only. An observation older than the window its ring slot now holds
// is dropped.
//
//adsala:zeroalloc
func (c *cell) observe(e int64, residual, absRel float64, withResidual bool) {
	i := int(e % slots)
	c.mu.Lock()
	c.samples++
	if c.epoch[i] != e {
		if c.epoch[i] > e {
			c.mu.Unlock()
			return
		}
		c.epoch[i] = e
		c.residual[i] = obs.Moments{}
		c.absRel[i] = obs.Moments{}
	}
	if withResidual {
		c.residual[i].Add(residual)
	}
	c.absRel[i].Add(absRel)
	c.mu.Unlock()
}

// momentsAt merges the sub-windows inside the window ending at sub-window
// hi — the current (partial) one included, so the effective span is between
// window−slot and window — and returns the cumulative sample count beside.
func (c *cell) momentsAt(hi int64) (samples int64, residual, absRel obs.Moments) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.epoch {
		if e := c.epoch[i]; e > hi-slots && e <= hi {
			residual.Merge(c.residual[i])
			absRel.Merge(c.absRel[i])
		}
	}
	return c.samples, residual, absRel
}

// opAgg is one op's cumulative aggregation.
type opAgg struct {
	measured    atomic.Int64 // measurements observed
	unpredicted atomic.Int64 // measurements with no predicted label
	// measuredLat and predictedLat are cumulative latency histograms
	// (nanosecond observations exposed as seconds), the online counterpart
	// of replay's measured_latency/predicted_latency tails.
	measuredLat  *obs.Histogram
	predictedLat *obs.Histogram
}

// Monitor is the online drift observer. One instance is attached to a
// serving engine (Engine.SetDriftMonitor) or driven from a capture
// (replay.DriftRun); Observe/ObserveAt are safe for concurrent use and
// allocation-free, everything else is read-side.
type Monitor struct {
	cfg       Config
	base      time.Time
	slotNanos int64
	// flops holds each op's registry FLOP-count function, captured at
	// construction so the observe path never walks the registry (whose
	// unknown-op fallback would cost an allocation).
	flops []func(m, k, n int) float64
	cells []cell  // ops.NumOps() × numBuckets, row-major by op
	perOp []opAgg // indexed by ops.Op

	// logMu guards LogEvents' transition-edge state, indexed by ops.Op:
	// lastState is 0 = unknown, 1 = within threshold, 2 = drifting;
	// lastEvent is the online time of the op's last logged transition.
	logMu     sync.Mutex
	lastState []int8
	lastEvent []int64
}

// NewMonitor returns a monitor with the given configuration (zero values
// select the defaults). The online clock base is construction time.
func NewMonitor(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:       cfg,
		base:      time.Now(),
		slotNanos: max(cfg.Window.Nanoseconds()/slots, 1),
		flops:     make([]func(mm, k, n int) float64, ops.NumOps()),
		cells:     make([]cell, ops.NumOps()*numBuckets),
		perOp:     make([]opAgg, ops.NumOps()),
		lastState: make([]int8, ops.NumOps()),
		lastEvent: make([]int64, ops.NumOps()),
	}
	for _, spec := range ops.Specs() {
		m.flops[spec.Op] = spec.Flops
	}
	for i := range m.perOp {
		m.perOp[i].measuredLat = obs.NewHistogram(1e-9)
		m.perOp[i].predictedLat = obs.NewHistogram(1e-9)
	}
	return m
}

// Config returns the resolved configuration.
func (m *Monitor) Config() Config { return m.cfg }

// nowNanos is the online clock: monotonic nanoseconds since construction.
//
//adsala:zeroalloc
func (m *Monitor) nowNanos() int64 { return int64(time.Since(m.base)) }

// clampOp folds out-of-range ops onto GEMM so a miscast op can never panic
// the hot path (the engine's opCounters convention).
//
//adsala:zeroalloc
func (m *Monitor) clampOp(op ops.Op) ops.Op {
	if int(op) >= len(m.perOp) {
		return ops.GEMM
	}
	return op
}

// bucketOf maps a shape to its FLOP-weight bucket.
//
//adsala:zeroalloc
func (m *Monitor) bucketOf(op ops.Op, mm, k, n int) int {
	f := m.flops[op](mm, k, n)
	switch {
	case f < smallFlops:
		return bucketSmall
	case f < mediumFlops:
		return bucketMedium
	default:
		return bucketLarge
	}
}

// epochOf maps a timestamp to its 1-based sub-window index (negative
// timestamps clamp to the first).
//
//adsala:zeroalloc
func (m *Monitor) epochOf(ts int64) int64 { return max(ts, 0)/m.slotNanos + 1 }

// cellFor returns the (op, bucket) cell.
//
//adsala:zeroalloc
func (m *Monitor) cellFor(op ops.Op, bucket int) *cell {
	return &m.cells[int(op)*numBuckets+bucket]
}

// Observe folds one measured-prediction pair in at the current online
// time. predictedNs ≤ 0 means no predicted label was available (no model
// for the op); the measurement still counts into the latency histogram and
// the abs-rel-err window (as 1.0, exactly as replay scores a zero
// prediction), but not into the residual window.
//
//adsala:zeroalloc
func (m *Monitor) Observe(op ops.Op, mm, k, n int, predictedNs, measuredNs int64) {
	m.ObserveAt(m.nowNanos(), op, mm, k, n, predictedNs, measuredNs)
}

// ObserveAt is Observe at an explicit timestamp (nanoseconds on the
// caller's clock — the trace record's TS when replaying a capture). The
// window rotates on these timestamps, so online and replay runs use the
// same code against their own clocks.
//
//adsala:zeroalloc
func (m *Monitor) ObserveAt(ts int64, op ops.Op, mm, k, n int, predictedNs, measuredNs int64) {
	if measuredNs <= 0 {
		return
	}
	op = m.clampOp(op)
	a := &m.perOp[op]
	a.measured.Add(1)
	a.measuredLat.Observe(measuredNs)
	c := m.cellFor(op, m.bucketOf(op, mm, k, n))
	measured := float64(measuredNs) * 1e-9
	if predictedNs > 0 {
		a.predictedLat.Observe(predictedNs)
		predicted := float64(predictedNs) * 1e-9
		c.observe(m.epochOf(ts), math.Log2(predicted/measured), math.Abs(predicted-measured)/measured, true)
		return
	}
	a.unpredicted.Add(1)
	c.observe(m.epochOf(ts), 0, 1, false)
}

// isDrifting applies the trip rule to one windowed residual aggregate.
func (m *Monitor) isDrifting(mo obs.Moments) bool {
	return mo.Count() >= m.cfg.MinSamples && math.Abs(mo.Mean()) > m.cfg.Threshold
}

// DriftingOps returns the wire names of the ops currently drifting, in op
// order — the /healthz body's offending-ops list. Nil when healthy.
func (m *Monitor) DriftingOps() []string { return m.driftingAt(m.nowNanos()) }

// Degraded reports whether any op is currently drifting.
func (m *Monitor) Degraded() bool { return len(m.DriftingOps()) > 0 }

func (m *Monitor) driftingAt(ts int64) []string {
	var out []string
	for op := 0; op < len(m.perOp); op++ {
		if _, drifting := m.opResidualAt(ops.Op(op), ts); drifting {
			out = append(out, ops.Op(op).String())
		}
	}
	return out
}

// opResidualAt merges op's windowed residuals across its shape buckets at
// ts and reports whether any bucket trips the drift rule.
func (m *Monitor) opResidualAt(op ops.Op, ts int64) (merged obs.Moments, drifting bool) {
	hi := m.epochOf(ts)
	for b := 0; b < numBuckets; b++ {
		_, res, _ := m.cellFor(op, b).momentsAt(hi)
		merged.Merge(res)
		drifting = drifting || m.isDrifting(res)
	}
	return merged, drifting
}

// BucketDrift is one (op, bucket) cell of the report. The windowed
// summaries cover the sliding window only; Samples is cumulative.
type BucketDrift struct {
	Samples      int64       `json:"samples"`
	ResidualLog2 obs.Summary `json:"residual_log2"`
	AbsRelErr    obs.Summary `json:"abs_rel_err"`
	Drifting     bool        `json:"drifting"`
}

// OpDrift is one op's section of the report. ResidualLog2 and AbsRelErr
// are the windowed statistics merged across the op's shape buckets; the
// latency tails are cumulative since monitor construction.
type OpDrift struct {
	Measured         int64                  `json:"measured"`
	Unpredicted      int64                  `json:"unpredicted,omitempty"`
	ResidualLog2     obs.Summary            `json:"residual_log2"`
	AbsRelErr        obs.Summary            `json:"abs_rel_err"`
	MeasuredLatency  obs.Tails              `json:"measured_latency"`
	PredictedLatency obs.Tails              `json:"predicted_latency"`
	Drifting         bool                   `json:"drifting"`
	Buckets          map[string]BucketDrift `json:"buckets,omitempty"`
}

// Report is the schema-versioned JSON answer of /drift (and of
// adsala-replay -drift).
type Report struct {
	Schema        string  `json:"schema"`
	WindowSeconds float64 `json:"window_seconds"`
	Slots         int     `json:"slots"`
	Threshold     float64 `json:"threshold"`
	MinSamples    int64   `json:"min_samples"`
	// Observed is the total measurements folded in across ops (cumulative).
	Observed    int64              `json:"observed"`
	Degraded    bool               `json:"degraded"`
	DriftingOps []string           `json:"drifting_ops,omitempty"`
	PerOp       map[string]OpDrift `json:"per_op,omitempty"`
}

// Snapshot builds the report at the current online time.
func (m *Monitor) Snapshot() *Report { return m.SnapshotAt(m.nowNanos()) }

// windowSeconds is the configured span of the sliding window. Divided, not
// multiplied by 1e-9: 6e10 ns · 1e-9 is 60.00000000000001, 6e10 ns / 1e9 is 60.
func (m *Monitor) windowSeconds() float64 {
	return float64(m.slotNanos*slots) / 1e9
}

// SnapshotAt builds the report with the sliding window ending at ts (the
// last record's timestamp when replaying a capture).
func (m *Monitor) SnapshotAt(ts int64) *Report {
	rep := &Report{
		Schema:        Schema,
		WindowSeconds: m.windowSeconds(),
		Slots:         slots,
		Threshold:     m.cfg.Threshold,
		MinSamples:    m.cfg.MinSamples,
	}
	for op := 0; op < len(m.perOp); op++ {
		a := &m.perOp[op]
		measured := a.measured.Load()
		rep.Observed += measured
		if measured == 0 {
			continue
		}
		od := OpDrift{
			Measured:         measured,
			Unpredicted:      a.unpredicted.Load(),
			MeasuredLatency:  a.measuredLat.Tails(),
			PredictedLatency: a.predictedLat.Tails(),
		}
		var res, abs obs.Moments
		for b := 0; b < numBuckets; b++ {
			samples, bres, babs := m.cellFor(ops.Op(op), b).momentsAt(m.epochOf(ts))
			if samples == 0 {
				continue
			}
			res.Merge(bres)
			abs.Merge(babs)
			bd := BucketDrift{
				Samples:      samples,
				ResidualLog2: bres.Summary(),
				AbsRelErr:    babs.Summary(),
				Drifting:     m.isDrifting(bres),
			}
			if bd.Drifting {
				od.Drifting = true
			}
			if od.Buckets == nil {
				od.Buckets = make(map[string]BucketDrift, numBuckets)
			}
			od.Buckets[bucketNames[b]] = bd
		}
		od.ResidualLog2 = res.Summary()
		od.AbsRelErr = abs.Summary()
		if od.Drifting {
			rep.Degraded = true
			rep.DriftingOps = append(rep.DriftingOps, ops.Op(op).String())
		}
		if rep.PerOp == nil {
			rep.PerOp = make(map[string]OpDrift)
		}
		rep.PerOp[ops.Op(op).String()] = od
	}
	return rep
}

// LogEvents emits structured drift transition events through the logger:
// one line when an op's windowed residual crosses the threshold
// (event=drift_start) and one when it recovers (event=drift_end). Called
// periodically off the hot path (the daemon runs it on a ticker); edges
// plus a per-op minimum gap of one window slot rate-limit the output, so a
// flapping op cannot flood the log. Returns the number of events logged.
func (m *Monitor) LogEvents(lg *logx.Logger) int {
	m.logMu.Lock()
	defer m.logMu.Unlock()
	now := m.nowNanos()
	logged := 0
	for op := 0; op < len(m.perOp); op++ {
		if m.perOp[op].measured.Load() == 0 {
			continue
		}
		mo, drifting := m.opResidualAt(ops.Op(op), now)
		state := int8(1)
		if drifting {
			state = 2
		}
		prev := m.lastState[op]
		if prev == state {
			continue
		}
		if prev == 0 && state == 1 {
			// First evaluation, healthy: record the state silently.
			m.lastState[op] = state
			continue
		}
		if last := m.lastEvent[op]; last != 0 && now-last < m.slotNanos {
			continue // rate limit: at most one transition per op per slot
		}
		m.lastState[op] = state
		m.lastEvent[op] = now
		event := "drift_end"
		if state == 2 {
			event = "drift_start"
		}
		lg.Infof("drift: event=%s op=%s residual_log2_mean=%.4f window_samples=%d threshold=%.2f window=%s",
			event, ops.Op(op).String(), mo.Mean(), mo.Count(), m.cfg.Threshold,
			time.Duration(m.slotNanos*slots))
		logged++
	}
	return logged
}
