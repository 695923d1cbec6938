package drift

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/logx"
	"repro/internal/ops"
)

func TestBucketRouting(t *testing.T) {
	m := NewMonitor(Config{MinSamples: 1})

	// GEMM FLOPs = 2mkn: 100³ → 2e6 (small), 500³ → 2.5e8 (medium),
	// 2000³ → 1.6e10 (large).
	if b := m.bucketOf(ops.GEMM, 100, 100, 100); b != bucketSmall {
		t.Errorf("100^3 GEMM bucket %d, want small", b)
	}
	if b := m.bucketOf(ops.GEMM, 500, 500, 500); b != bucketMedium {
		t.Errorf("500^3 GEMM bucket %d, want medium", b)
	}
	if b := m.bucketOf(ops.GEMM, 2000, 2000, 2000); b != bucketLarge {
		t.Errorf("2000^3 GEMM bucket %d, want large", b)
	}
	// SYRK uses its own weight m(m+1)k, not the GEMM formula.
	if b := m.bucketOf(ops.SYRK, 500, 500, 500); b != bucketMedium {
		t.Errorf("500^3 SYRK bucket %d, want medium", b)
	}

	ts := int64(1)
	m.ObserveAt(ts, ops.GEMM, 100, 100, 100, 1000, 1000)
	m.ObserveAt(ts, ops.GEMM, 500, 500, 500, 1000, 1000)
	m.ObserveAt(ts, ops.GEMM, 2000, 2000, 2000, 1000, 1000)
	rep := m.SnapshotAt(ts)
	od, ok := rep.PerOp["gemm"]
	if !ok {
		t.Fatalf("per_op missing gemm: %v", rep.PerOp)
	}
	for _, name := range []string{"small", "medium", "large"} {
		bd, ok := od.Buckets[name]
		if !ok || bd.Samples != 1 {
			t.Errorf("bucket %s = %+v, want 1 sample", name, bd)
		}
	}
	if od.ResidualLog2.Count != 3 {
		t.Errorf("merged residual count %d, want 3", od.ResidualLog2.Count)
	}
}

func TestResidualDefinitions(t *testing.T) {
	m := NewMonitor(Config{MinSamples: 1})
	ts := int64(1)

	// predicted 2ms, measured 1ms: residual_log2 = 1, abs_rel_err = 1.
	m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 2_000_000, 1_000_000)
	rep := m.SnapshotAt(ts)
	od := rep.PerOp["gemm"]
	if got := od.ResidualLog2.Mean; got != 1 {
		t.Errorf("residual_log2 mean %.6f, want 1", got)
	}
	if got := od.AbsRelErr.Mean; got != 1 {
		t.Errorf("abs_rel_err mean %.6f, want 1", got)
	}

	// Unpredicted measurement: no residual sample, abs_rel_err scores 1
	// (exactly as replay scores a zero prediction).
	m.ObserveAt(ts, ops.SYRK, 64, 64, 64, 0, 1_000_000)
	rep = m.SnapshotAt(ts)
	od = rep.PerOp["syrk"]
	if od.Measured != 1 || od.Unpredicted != 1 {
		t.Errorf("syrk measured=%d unpredicted=%d, want 1/1", od.Measured, od.Unpredicted)
	}
	if od.ResidualLog2.Count != 0 {
		t.Errorf("unpredicted added a residual sample: %+v", od.ResidualLog2)
	}
	if od.AbsRelErr.Count != 1 || od.AbsRelErr.Mean != 1 {
		t.Errorf("unpredicted abs_rel_err %+v, want one sample at 1", od.AbsRelErr)
	}

	// Non-positive measurements are dropped, out-of-range ops clamp to GEMM
	// instead of panicking.
	m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 1000, 0)
	m.ObserveAt(ts, ops.Op(200), 64, 64, 64, 1000, 1000)
	rep = m.SnapshotAt(ts)
	if got := rep.PerOp["gemm"].Measured; got != 2 {
		t.Errorf("gemm measured %d, want 2 (dropped zero, clamped unknown)", got)
	}
}

func TestDriftTripAndEviction(t *testing.T) {
	m := NewMonitor(Config{Window: time.Minute, Threshold: 0.5, MinSamples: 4})
	window := m.slotNanos * slots
	ts := int64(1)

	// Below MinSamples the cell cannot trip, however bad the residuals.
	for i := 0; i < 3; i++ {
		m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 4_000_000, 1_000_000) // residual_log2 = 2
	}
	if rep := m.SnapshotAt(ts); rep.Degraded {
		t.Errorf("degraded below MinSamples: %+v", rep.DriftingOps)
	}

	// The fourth bad sample trips it.
	m.ObserveAt(ts, ops.GEMM, 64, 64, 64, 4_000_000, 1_000_000)
	rep := m.SnapshotAt(ts)
	if !rep.Degraded || len(rep.DriftingOps) != 1 || rep.DriftingOps[0] != "gemm" {
		t.Fatalf("degraded=%v drifting=%v, want degraded on gemm", rep.Degraded, rep.DriftingOps)
	}
	if !rep.PerOp["gemm"].Drifting || !rep.PerOp["gemm"].Buckets["small"].Drifting {
		t.Errorf("drifting flags not set: %+v", rep.PerOp["gemm"])
	}
	if got := drifting(m, ts); len(got) != 1 || got[0] != "gemm" {
		t.Errorf("driftingAt = %v", got)
	}

	// A window later the bad samples have evicted: the op recovers without
	// any corrective traffic.
	later := ts + window + m.slotNanos
	rep = m.SnapshotAt(later)
	if rep.Degraded {
		t.Errorf("still degraded a full window later: %+v", rep.DriftingOps)
	}
	if got := rep.PerOp["gemm"].ResidualLog2.Count; got != 0 {
		t.Errorf("residual window holds %d samples after expiry", got)
	}
	// Cumulative counters survive the window.
	if got := rep.PerOp["gemm"].Measured; got != 4 {
		t.Errorf("cumulative measured %d, want 4", got)
	}
}

func drifting(m *Monitor, ts int64) []string { return m.driftingAt(ts) }

func TestLogEventsEdgesAndRateLimit(t *testing.T) {
	// A short window keeps the real-clock portions of this test fast: slot
	// duration is 250ms, which is both the eviction granularity and the
	// per-op event rate limit.
	m := NewMonitor(Config{Window: 2 * time.Second, Threshold: 0.5, MinSamples: 4})
	var buf bytes.Buffer
	lg := logx.New(&buf, logx.Info)

	// Healthy first evaluation is recorded silently — a fresh daemon must
	// not open its log with a spurious drift_end.
	now := m.nowNanos()
	for i := 0; i < 8; i++ {
		m.ObserveAt(now, ops.GEMM, 64, 64, 64, 1_000_000, 1_000_000)
	}
	if n := m.LogEvents(lg); n != 0 {
		t.Fatalf("initial healthy evaluation logged %d events", n)
	}

	// Threshold crossing logs exactly one drift_start.
	now = m.nowNanos()
	for i := 0; i < 32; i++ {
		m.ObserveAt(now, ops.GEMM, 64, 64, 64, 8_000_000, 1_000_000) // residual_log2 = 3
	}
	if n := m.LogEvents(lg); n != 1 {
		t.Fatalf("threshold crossing logged %d events, want 1", n)
	}
	out := buf.String()
	if !strings.Contains(out, "event=drift_start") || !strings.Contains(out, "op=gemm") {
		t.Fatalf("drift_start line malformed: %q", out)
	}
	// Steady state logs nothing.
	if n := m.LogEvents(lg); n != 0 {
		t.Fatalf("steady drifting state logged %d events", n)
	}

	// Flood the window with healthy samples: the state flips back, but the
	// rate limit suppresses a transition within one slot of the last event.
	now = m.nowNanos()
	for i := 0; i < 512; i++ {
		m.ObserveAt(now, ops.GEMM, 64, 64, 64, 1_000_000, 1_000_000)
	}
	if n := m.LogEvents(lg); n != 0 {
		t.Fatalf("recovery inside the rate-limit slot logged %d events", n)
	}

	// After the slot elapses the recovery edge logs drift_end.
	time.Sleep(time.Duration(m.slotNanos) + 50*time.Millisecond)
	now = m.nowNanos()
	for i := 0; i < 512; i++ {
		m.ObserveAt(now, ops.GEMM, 64, 64, 64, 1_000_000, 1_000_000)
	}
	if n := m.LogEvents(lg); n != 1 {
		t.Fatalf("recovery after rate-limit slot logged %d events, want 1", n)
	}
	if !strings.Contains(buf.String(), "event=drift_end") {
		t.Fatalf("drift_end missing from log: %q", buf.String())
	}
}

func TestReportJSONShape(t *testing.T) {
	m := NewMonitor(Config{})
	m.ObserveAt(1, ops.GEMM, 500, 500, 500, 2_000_000, 1_000_000)
	b, err := json.Marshal(m.SnapshotAt(1))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got["schema"] != Schema {
		t.Errorf("schema %v", got["schema"])
	}
	for _, key := range []string{"window_seconds", "slots", "threshold", "min_samples", "observed", "degraded", "per_op"} {
		if _, ok := got[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	perOp := got["per_op"].(map[string]any)
	gemm := perOp["gemm"].(map[string]any)
	for _, key := range []string{"measured", "residual_log2", "abs_rel_err", "measured_latency", "predicted_latency", "drifting", "buckets"} {
		if _, ok := gemm[key]; !ok {
			t.Errorf("per_op entry missing %q", key)
		}
	}
	res := gemm["residual_log2"].(map[string]any)
	for _, key := range []string{"count", "mean", "std", "min", "max"} {
		if _, ok := res[key]; !ok {
			t.Errorf("residual summary missing %q", key)
		}
	}
	lat := gemm["measured_latency"].(map[string]any)
	for _, key := range []string{"count", "mean_seconds", "p50_seconds", "p90_seconds", "p99_seconds"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency tails missing %q", key)
		}
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	m := NewMonitor(Config{})
	if n := testing.AllocsPerRun(500, func() {
		m.Observe(ops.GEMM, 512, 256, 384, 2_000_000, 1_000_000)
	}); n != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		m.Observe(ops.SYR2K, 512, 256, 512, 0, 1_000_000)
	}); n != 0 {
		t.Errorf("unpredicted Observe allocates %.1f/op, want 0", n)
	}
}
