// Package replay backtests a trained artefact against a captured serving
// trace: it streams the flight-recorder records of package trace through a
// serve.Engine built over any candidate library — no daemon involved — and
// scores the candidate with constant-memory one-pass aggregation
// (obs.Moments + obs.Histogram), so a multi-gigabyte trace replays in a
// fixed footprint.
//
// Decision records replay through the engine's real decision path (sharded
// cache included), yielding the decision-agreement rate against the
// recorded choices and a simulated cache hit rate. Measurement records —
// executed kernel calls with wall times, captured by the in-process facade
// — are scored as labelled data: per-op predicted-vs-measured residuals and
// the model-predicted regret of the recorded choice under the candidate's
// own ranking. Replaying a trace against the artefact that recorded it
// reproduces the recorded decisions exactly (the engine is deterministic),
// which CI pins; a retrained candidate's agreement and regret against the
// same trace is the offline evaluation the ROADMAP's adaptation loop needs.
package replay

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Config tunes a replay run.
type Config struct {
	// CacheSize is the replay engine's decision-cache capacity; zero
	// selects the serve default. Match the recording daemon's -cache to
	// make the simulated hit rate comparable (the shard count is the
	// daemon's own by construction).
	CacheSize int
}

// OpReport is one operation's replay score.
type OpReport struct {
	// Decisions and Agreed cover replayed decision records: Agreed counts
	// those where the candidate chose exactly the recorded thread count.
	Decisions int64   `json:"decisions"`
	Agreed    int64   `json:"agreed"`
	Agreement float64 `json:"agreement"`
	// Measured counts measurement records scored as labelled data.
	Measured int64 `json:"measured"`
	// PredictedRegretSeconds summarises, per measurement record, how much
	// slower (by the candidate's own model) the recorded thread count is
	// than the candidate's best choice — 0 when they agree; always ≥ 0.
	PredictedRegretSeconds obs.Summary `json:"predicted_regret_seconds"`
	// ResidualLog2 summarises log2(predicted/measured) per measurement
	// record: 0 is a perfect prediction, +1 predicts 2× too slow, -1
	// predicts 2× too fast. Mean near 0 with small std means the model
	// transfers to this traffic.
	ResidualLog2 obs.Summary `json:"residual_log2"`
	// AbsRelErr summarises |predicted-measured|/measured.
	AbsRelErr obs.Summary `json:"abs_rel_err"`
	// MeasuredLatency and PredictedLatency are the wall-time tails of the
	// measurement records and the candidate's predictions for them.
	MeasuredLatency  obs.Tails `json:"measured_latency"`
	PredictedLatency obs.Tails `json:"predicted_latency"`
}

// Report is the replay score of one candidate artefact against one trace.
type Report struct {
	Schema string `json:"schema"`
	// Trace provenance: what was read and what the reader had to drop.
	Files         int      `json:"trace_files"`
	Records       int64    `json:"trace_records"`
	DroppedBlocks int64    `json:"trace_dropped_blocks,omitempty"`
	DroppedBytes  int64    `json:"trace_dropped_bytes,omitempty"`
	Corrupt       []string `json:"trace_corruption,omitempty"`
	// WarmupSkipped counts records excluded as warm-up traffic: captures
	// written by earlier daemons flag synthetic cache pre-population, which
	// no user sent and no candidate is scored on.
	WarmupSkipped int64 `json:"warmup_skipped,omitempty"`

	// Decisions / Agreed / Agreement aggregate the per-op decision replay.
	Decisions int64   `json:"decisions"`
	Agreed    int64   `json:"agreed"`
	Agreement float64 `json:"agreement"`
	// RecordedFallbacks counts decision records the daemon answered with
	// its degraded-mode heuristic; they replay like any other decision but
	// explain agreement gaps (the candidate may rank where the recorder
	// could not).
	RecordedFallbacks int64 `json:"recorded_fallbacks,omitempty"`
	// ReplayFallbacks counts decisions the candidate itself answered
	// heuristically (op missing from the candidate artefact).
	ReplayFallbacks int64 `json:"replay_fallbacks,omitempty"`
	// CacheHitRate is the simulated decision-cache hit rate of driving the
	// candidate engine with the recorded traffic.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Measured aggregates the measurement records scored.
	Measured int64 `json:"measured"`

	PerOp map[string]OpReport `json:"per_op,omitempty"`
}

// opState is one op's streaming aggregation.
type opState struct {
	decisions, agreed, measured int64
	regret                      obs.Moments
	residual                    obs.Moments
	absRelErr                   obs.Moments
	measuredLat                 *obs.Histogram
	predictedLat                *obs.Histogram
}

// Run replays the trace files against the candidate library and returns its
// score. The trace is streamed once in constant memory; corruption is
// recovered by the trace reader and surfaced in the report.
func Run(lib *core.Library, files []string, cfg Config) (*Report, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("replay: no trace files")
	}
	eng := serve.NewEngine(lib, serve.Options{CacheSize: cfg.CacheSize})
	scratch := lib.NewScratch()
	scores := make([]float64, len(lib.Candidates))

	rep := &Report{Schema: "adsala/replay/v1"}
	perOp := make([]*opState, ops.NumOps())
	opState := func(op ops.Op) *opState {
		if int(op) >= len(perOp) {
			op = ops.GEMM
		}
		if perOp[op] == nil {
			perOp[op] = newOpState()
		}
		return perOp[op]
	}

	stats, err := trace.ScanFiles(files, func(rec *trace.Record) error {
		if rec.IsWarmup() {
			rep.WarmupSkipped++
			return nil
		}
		if !rec.Op.Valid() {
			return fmt.Errorf("replay: record with unknown op %d (trace from a newer build?)", rec.Op)
		}
		m, k, n := int(rec.M), int(rec.K), int(rec.N)
		st := opState(rec.Op)
		if rec.IsDecision() {
			rep.Decisions++
			st.decisions++
			if rec.Flags&trace.FlagFallback != 0 {
				rep.RecordedFallbacks++
			}
			threads, fb := eng.PredictOpCtx(context.Background(), rec.Op, m, k, n)
			if fb {
				rep.ReplayFallbacks++
			}
			if threads == int(rec.Threads) {
				rep.Agreed++
				st.agreed++
			}
			return nil
		}
		// Measurement record: labelled data.
		if rec.MeasuredNs <= 0 || rec.Threads <= 0 {
			return nil
		}
		rep.Measured++
		st.measured++
		measured := float64(rec.MeasuredNs) * 1e-9
		predicted := lib.PredictOpSecondsInto(rec.Op, m, k, n, int(rec.Threads), scratch)
		st.measuredLat.Observe(rec.MeasuredNs)
		st.predictedLat.Observe(int64(predicted * 1e9))
		if predicted > 0 {
			st.residual.Add(math.Log2(predicted / measured))
		}
		st.absRelErr.Add(math.Abs(predicted-measured) / measured)
		// Predicted regret of the recorded choice under this candidate's
		// own ranking (0 when the candidate would have picked the same).
		best := lib.RankOpInto(rec.Op, m, k, n, scratch, scores)
		if regret := predicted - scores[best]; regret > 0 {
			st.regret.Add(regret)
		} else {
			st.regret.Add(0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep.Files = stats.Files
	rep.Records = stats.Records
	rep.DroppedBlocks = stats.DroppedBlocks
	rep.DroppedBytes = stats.DroppedBytes
	rep.Corrupt = stats.Corrupt
	if rep.Decisions > 0 {
		rep.Agreement = float64(rep.Agreed) / float64(rep.Decisions)
	}
	rep.CacheHitRate = eng.Stats().HitRate
	for op, st := range perOp {
		if st == nil {
			continue
		}
		or := OpReport{
			Decisions:              st.decisions,
			Agreed:                 st.agreed,
			Measured:               st.measured,
			PredictedRegretSeconds: st.regret.Summary(),
			ResidualLog2:           st.residual.Summary(),
			AbsRelErr:              st.absRelErr.Summary(),
			MeasuredLatency:        st.measuredLat.Tails(),
			PredictedLatency:       st.predictedLat.Tails(),
		}
		if st.decisions > 0 {
			or.Agreement = float64(st.agreed) / float64(st.decisions)
		}
		if rep.PerOp == nil {
			rep.PerOp = make(map[string]OpReport)
		}
		rep.PerOp[ops.Op(op).String()] = or
	}
	return rep, nil
}

func newOpState() *opState {
	return &opState{
		measuredLat:  obs.NewHistogram(1e-9),
		predictedLat: obs.NewHistogram(1e-9),
	}
}
