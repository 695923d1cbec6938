package serve

import (
	"math"
	"net/http"
	"time"

	"repro/internal/drift"
)

// DriftReport is the /drift response body — the drift monitor's
// schema-versioned report, re-exported so client code needs only this
// package.
type DriftReport = drift.Report

// MeasuredRecord is one executed kernel call reported back to the daemon:
// the op, the shape triple it ran at (symmetric updates pass (n, k, n)),
// the thread count actually used, and the measured wall time. It is the
// over-the-wire form of what the in-process BLAS facade feeds
// Engine.RecordMeasured directly.
type MeasuredRecord struct {
	PredictRequest
	Threads    int   `json:"threads"`
	MeasuredNs int64 `json:"measured_ns"`
}

// MeasuredRequest is the JSON body of POST /measured.
type MeasuredRequest struct {
	Records []MeasuredRecord `json:"records"`
}

// MeasuredResponse is the JSON answer of POST /measured.
type MeasuredResponse struct {
	Accepted int `json:"accepted"`
}

// MaxMeasuredRecords bounds one /measured request body.
const MaxMeasuredRecords = MaxBatchShapes

// handleMeasured is POST /measured: the measured-prediction ingestion
// path. A serving daemon decides but never executes, so without this
// endpoint its drift monitor and flight recorder would only ever see
// decisions; clients that execute the chosen kernels report the measured
// wall times back here, closing the loop. Each record flows through
// Engine.RecordMeasured — into the drift windows and, when a recorder is
// attached, the trace capture — exactly as an in-process execution would.
func (s *Server) handleMeasured(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	defer func() { s.measured.observe(time.Since(start), failed) }()

	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	// Ingestion runs a model evaluation per record when a drift monitor is
	// attached, so it sits under the same admission gate as the prediction
	// endpoints.
	if !s.admit(w, r) {
		return
	}
	defer s.release()
	c := newCodec()
	defer c.free()
	req := &c.measured
	if status, err := decode(c, w, r, maxMeasuredBody, req, (*scanner).measured); err != nil {
		writeError(w, status, "decode body: %v", err)
		return
	}
	if len(req.Records) == 0 {
		writeError(w, http.StatusBadRequest, "empty records")
		return
	}
	if len(req.Records) > MaxMeasuredRecords {
		writeError(w, http.StatusBadRequest, "%d records exceeds limit %d", len(req.Records), MaxMeasuredRecords)
		return
	}
	// Validate everything before ingesting anything: a batch is accepted or
	// rejected as a unit, so a client can safely retry a 400 after fixing it
	// without double-counting a prefix.
	opOf := make([]Op, len(req.Records))
	for i, rec := range req.Records {
		op, err := rec.parse()
		if err != nil {
			writeError(w, http.StatusBadRequest, "record %d: %v", i, err)
			return
		}
		if rec.Threads < 1 {
			writeError(w, http.StatusBadRequest, "record %d: threads must be positive, got %d", i, rec.Threads)
			return
		}
		if rec.Threads > math.MaxInt32 {
			writeError(w, http.StatusBadRequest, "record %d: threads must be at most %d, got %d", i, math.MaxInt32, rec.Threads)
			return
		}
		if rec.MeasuredNs < 1 {
			writeError(w, http.StatusBadRequest, "record %d: measured_ns must be positive, got %d", i, rec.MeasuredNs)
			return
		}
		opOf[i] = op
	}
	for i, rec := range req.Records {
		s.engine.RecordMeasured(opOf[i], rec.M, rec.K, rec.N, rec.Threads, rec.MeasuredNs)
	}
	failed = false
	c.buf = appendMeasured(c.buf[:0], &MeasuredResponse{Accepted: len(req.Records)})
	reply(w, c.buf)
}

// handleDrift is GET /drift: the schema-versioned online drift report
// (per-op, per-shape-bucket windowed residual statistics — the same
// definitions adsala-replay computes offline). 404 when drift monitoring
// is off so probes can distinguish "disabled" from "no data".
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	mon := s.engine.DriftMonitor()
	if mon == nil {
		writeError(w, http.StatusNotFound, "drift monitoring is not enabled (start with -drift-window)")
		return
	}
	writeJSON(w, http.StatusOK, mon.Snapshot())
}
