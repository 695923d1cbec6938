package replay

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/trace"
)

// DriftRun runs the online drift detector offline: it streams the trace's
// measurement records through a drift.Monitor on the capture's own clock
// (each record's TS drives the sliding window) and returns the monitor's
// report as of the last record. This is how drift thresholds are tuned —
// run the exact detector the daemon would run over a capture of real
// traffic and see where it would have tripped — and it is the agreement
// oracle for the online /drift endpoint: the same records through the same
// code must produce the same residual statistics.
func DriftRun(lib *core.Library, files []string, cfg drift.Config) (*drift.Report, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("replay: no trace files")
	}
	mon := drift.NewMonitor(cfg)
	scratch := lib.NewScratch()
	var lastTS int64
	_, err := trace.ScanFiles(files, func(rec *trace.Record) error {
		if rec.IsDecision() {
			return nil
		}
		if rec.IsWarmup() {
			return nil
		}
		if !rec.Op.Valid() {
			return fmt.Errorf("replay: record with unknown op %d (trace from a newer build?)", rec.Op)
		}
		if rec.MeasuredNs <= 0 || rec.Threads <= 0 {
			return nil
		}
		m, k, n := int(rec.M), int(rec.K), int(rec.N)
		// Score with the same truncation the engine's hot path applies, so
		// online and replayed residuals agree bit-for-bit on shared records.
		var predNs int64
		if lib.ModelFor(rec.Op) != nil {
			predNs = int64(lib.PredictOpSecondsInto(rec.Op, m, k, n, int(rec.Threads), scratch) * 1e9)
		}
		if rec.TS > lastTS {
			lastTS = rec.TS
		}
		mon.ObserveAt(rec.TS, rec.Op, m, k, n, predNs, rec.MeasuredNs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mon.SnapshotAt(lastTS), nil
}
