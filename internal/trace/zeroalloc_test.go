package trace

import (
	"path/filepath"
	"testing"
	"time"
)

// TestRecordZeroAlloc dynamically pins the //adsala:zeroalloc contract on
// Recorder.Record: the serving hot path must not allocate when tracing is
// enabled. The drain goroutine is alloc-free in steady state (reused
// payload/block buffers, direct file writes), so concurrent draining does
// not perturb the global malloc counter AllocsPerRun reads; a huge flush
// interval keeps block assembly out of the window anyway.
func TestRecordZeroAlloc(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	r, err := open(prefix, Options{}, tuning{bufRecords: 1 << 16, flushInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()

	rec := testRecord(3)
	r.Record(rec) // warm the path once outside the measurement
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(rec)
	})
	if allocs != 0 {
		t.Fatalf("Recorder.Record allocates %v allocs/op, want 0", allocs)
	}
	if r.Dropped() != 0 {
		t.Fatalf("buffer dropped %d records during the run; size the buffer up", r.Dropped())
	}
}
