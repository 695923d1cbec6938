package serve

import (
	"repro/internal/trace"
)

// SetRecorder attaches (or detaches, with nil) a flight recorder: every
// subsequent decision — cache hit, model ranking, heuristic fallback — and
// every RecordMeasured call is appended to it. The engine does not own the
// recorder's lifecycle; whoever attached it closes it after the engine
// stops producing (adsala-serve does so after graceful shutdown).
func (e *Engine) SetRecorder(r *trace.Recorder) { e.recorder.Store(r) }

// Recorder returns the attached flight recorder, or nil when tracing is
// off.
func (e *Engine) Recorder() *trace.Recorder { return e.recorder.Load() }

// traceDecision appends one decision record to the attached recorder, if any.
//
//adsala:zeroalloc
func (e *Engine) traceDecision(op Op, m, k, n, threads int, predNs int64, flags uint8) {
	r := e.recorder.Load()
	if r == nil {
		return
	}
	r.Record(trace.Record{
		PredictedNs: predNs,
		M:           int32(m),
		K:           int32(k),
		N:           int32(n),
		Threads:     int32(threads),
		Op:          op,
		Flags:       flags,
	})
}

// Measuring reports whether RecordMeasured has anything to feed: a flight
// recorder or a drift monitor is attached. A caller that times its kernel
// only to report the time asks first and skips both clock reads when no one
// listens.
//
//adsala:zeroalloc
func (e *Engine) Measuring() bool {
	return e.recorder.Load() != nil || e.drift.Load() != nil
}

// RecordMeasured folds one measurement — the measured wall time of one
// executed kernel call at the given thread count — into the engine's
// measured-prediction stream: the flight recorder appends a measurement
// record, and the drift monitor (when attached) scores the pair online.
// The in-process BLAS facade calls it after each successful execution that
// began while Measuring was true; a
// serving daemon itself only decides, so its stream fills through POST
// /measured, where executing clients report their kernel wall times back.
// A no-op with neither recorder nor monitor attached.
//
//adsala:zeroalloc
func (e *Engine) RecordMeasured(op Op, m, k, n, threads int, measuredNs int64) {
	if d := e.drift.Load(); d != nil {
		st := e.state.Load()
		var predNs int64
		if st.lib.ModelFor(op) != nil {
			// Score the executed configuration with the pooled scratch — the
			// same model evaluation replay runs offline, so online residuals
			// and a replay of the capture are directly comparable.
			rs := st.scratch.Get().(*rankScratch)
			predNs = int64(st.lib.PredictOpSecondsInto(op, m, k, n, threads, rs.s) * 1e9)
			st.scratch.Put(rs)
		}
		d.Observe(op, m, k, n, predNs, measuredNs)
	}
	r := e.recorder.Load()
	if r == nil {
		return
	}
	r.Record(trace.Record{
		MeasuredNs: measuredNs,
		M:          int32(m),
		K:          int32(k),
		N:          int32(n),
		Threads:    int32(threads),
		Op:         op,
		Flags:      trace.FlagMeasured,
	})
}
