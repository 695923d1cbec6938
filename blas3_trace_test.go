package adsala

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

// capturedRecords flushes the recorder and reads back everything it wrote
// under prefix.
func capturedRecords(t *testing.T, rec *trace.Recorder, prefix string) []trace.Record {
	t.Helper()
	rec.Flush()
	files, err := trace.Files(prefix)
	if err != nil {
		t.Fatal(err)
	}
	var recs []trace.Record
	if _, err := trace.ScanFiles(files, func(r *trace.Record) error {
		recs = append(recs, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestFacadeRecordsMeasured pins the in-process capture contract: a traced
// facade call records both halves — the decision and a FlagMeasured record
// carrying the executed thread count and a positive wall time at the same
// canonical shape — so replay gets predicted/measured pairs for free.
func TestFacadeRecordsMeasured(t *testing.T) {
	lib, _ := trainQuick(t)
	b := lib.BLAS()
	prefix := filepath.Join(t.TempDir(), "cap")
	rec, err := trace.Open(prefix, trace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	b.Engine().SetRecorder(rec)
	defer b.Engine().SetRecorder(nil)

	rng := rand.New(rand.NewSource(1))
	m, k, n := 96, 64, 80
	a := NewMatrixF32(m, k)
	bm := NewMatrixF32(k, n)
	a.FillRandom(rng)
	bm.FillRandom(rng)
	c := NewMatrixF32(m, n)
	if err := b.SGEMM(false, false, 1, a, bm, 0, c); err != nil {
		t.Fatal(err)
	}

	recs := capturedRecords(t, rec, prefix)
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want decision + measurement: %+v", len(recs), recs)
	}
	dec, meas := recs[0], recs[1]
	if !dec.IsDecision() || meas.IsDecision() {
		t.Fatalf("record roles wrong: %+v / %+v", dec, meas)
	}
	if meas.MeasuredNs <= 0 {
		t.Errorf("MeasuredNs = %d, want > 0", meas.MeasuredNs)
	}
	if meas.M != int32(m) || meas.K != int32(k) || meas.N != int32(n) {
		t.Errorf("measurement shape = (%d,%d,%d), want (%d,%d,%d)", meas.M, meas.K, meas.N, m, k, n)
	}
	// The decision records the model's raw choice; execution (and hence the
	// measurement) runs it through the local clamp.
	if want := clampThreads(int(dec.Threads), b.localClamp()); meas.Op != dec.Op || int(meas.Threads) != want {
		t.Errorf("measurement (op %v, threads %d) disagrees with clamped decision (op %v, threads %d)",
			meas.Op, meas.Threads, dec.Op, want)
	}
}
