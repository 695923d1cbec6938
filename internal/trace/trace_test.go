package trace

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/ops"
)

// collect scans a prefix and returns copies of every record.
func collect(t *testing.T, prefix string) ([]Record, ScanStats) {
	t.Helper()
	files, err := Files(prefix)
	if err != nil {
		t.Fatalf("Files: %v", err)
	}
	var out []Record
	st, err := ScanFiles(files, func(r *Record) error {
		out = append(out, *r)
		return nil
	})
	if err != nil {
		t.Fatalf("ScanFiles: %v", err)
	}
	return out, st
}

func testRecord(i int) Record {
	return Record{
		TS:          int64(i) * 1500,
		PredictedNs: int64(1000 + i),
		MeasuredNs:  int64(i % 3 * 900),
		M:           int32(64 + i),
		K:           int32(32 + i),
		N:           int32(16 + i),
		Threads:     int32(1 + i%96),
		Op:          ops.Op(i % 3),
		Flags:       uint8(i % 16),
	}
}

// TestWriterRoundTrip pins that everything appended comes back verbatim,
// across multiple blocks.
func TestWriterRoundTrip(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	w, err := NewWriter(prefix, time.Now(), WriterOptions{BlockBytes: 256})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	const n = 500
	want := make([]Record, n)
	for i := range want {
		want[i] = testRecord(i)
		if err := w.Append(&want[i]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, st := collect(t, prefix)
	if len(got) != n {
		t.Fatalf("decoded %d records, want %d", len(got), n)
	}
	if st.DroppedBlocks != 0 || st.DroppedBytes != 0 {
		t.Fatalf("clean trace reported drops: %+v", st)
	}
	if st.Blocks < 2 {
		t.Fatalf("expected multiple blocks with BlockBytes=256, got %d", st.Blocks)
	}
	for i, r := range got {
		if r != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, r, want[i])
		}
	}
}

// TestWriterRotation pins size-based rotation and that a restarted writer
// continues after the highest existing index instead of clobbering.
func TestWriterRotation(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	w, err := NewWriter(prefix, time.Now(), WriterOptions{BlockBytes: 128, MaxFileBytes: 512})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := w.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files, err := Files(prefix)
	if err != nil {
		t.Fatalf("Files: %v", err)
	}
	if len(files) < 2 {
		t.Fatalf("expected rotation to produce multiple files, got %v", files)
	}
	got, _ := collect(t, prefix)
	if len(got) != n {
		t.Fatalf("decoded %d records across %d files, want %d", len(got), len(files), n)
	}

	// Restart on the same prefix: must not clobber, must extend the sequence.
	w2, err := NewWriter(prefix, time.Now(), WriterOptions{})
	if err != nil {
		t.Fatalf("NewWriter (restart): %v", err)
	}
	rec := testRecord(0)
	if err := w2.Append(&rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	files2, _ := Files(prefix)
	if len(files2) != len(files)+1 {
		t.Fatalf("restart produced %d files, want %d", len(files2), len(files)+1)
	}
	got2, _ := collect(t, prefix)
	if len(got2) != n+1 {
		t.Fatalf("decoded %d records after restart, want %d", len(got2), n+1)
	}
}

// TestRecorderConcurrent hammers the buffer from several producers and checks
// accounting: accepted records all land on disk, accepted+dropped equals
// what was offered.
func TestRecorderConcurrent(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	r, err := Open(prefix, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const (
		producers = 8
		each      = 5000
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(testRecord(p*each + i))
			}
		}(p)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	accepted, dropped := r.Records(), r.Dropped()
	if accepted+dropped != producers*each {
		t.Fatalf("accepted %d + dropped %d != offered %d", accepted, dropped, producers*each)
	}
	got, st := collect(t, prefix)
	if int64(len(got)) != accepted {
		t.Fatalf("disk has %d records, recorder accepted %d", len(got), accepted)
	}
	if st.DroppedBlocks != 0 {
		t.Fatalf("clean trace reported dropped blocks: %+v", st)
	}
	// Timestamps must be monotone non-decreasing after the clamped-delta
	// encoding, even if producers raced.
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			t.Fatalf("timestamp regression at %d: %d < %d", i, got[i].TS, got[i-1].TS)
		}
	}
}

// TestRecorderBackpressure pins drop-don't-block: with a tiny buffer and a
// stalled drain (huge flush interval keeps it polling but the test floods
// faster than 2ms polls can drain), Record never blocks and drops are
// counted.
func TestRecorderBackpressure(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	r, err := open(prefix, Options{}, tuning{bufRecords: 16, flushInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const offered = 100000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < offered; i++ {
			r.Record(testRecord(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Record blocked under backpressure")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if r.Records()+r.Dropped() != offered {
		t.Fatalf("accepted %d + dropped %d != offered %d", r.Records(), r.Dropped(), offered)
	}
	got, _ := collect(t, prefix)
	if int64(len(got)) != r.Records() {
		t.Fatalf("disk has %d records, recorder accepted %d", len(got), r.Records())
	}
}

// TestRecorderFlush pins that Flush makes accepted records durable without
// closing the recorder.
func TestRecorderFlush(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	r, err := Open(prefix, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		r.Record(testRecord(i))
	}
	r.Flush()
	got, _ := collect(t, prefix)
	if len(got) != 10 {
		t.Fatalf("after Flush disk has %d records, want 10", len(got))
	}
	if r.BytesWritten() <= int64(headerLen) {
		t.Fatalf("BytesWritten = %d, want > header", r.BytesWritten())
	}
}

// TestFilesAcceptsSingleFile pins that tools can pass either a prefix or a
// concrete trace file path.
func TestFilesAcceptsSingleFile(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "cap")
	w, err := NewWriter(prefix, time.Now(), WriterOptions{})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	rec := testRecord(1)
	if err := w.Append(&rec); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	byPrefix, err := Files(prefix)
	if err != nil || len(byPrefix) != 1 {
		t.Fatalf("Files(prefix) = %v, %v", byPrefix, err)
	}
	byPath, err := Files(byPrefix[0])
	if err != nil || len(byPath) != 1 || byPath[0] != byPrefix[0] {
		t.Fatalf("Files(path) = %v, %v", byPath, err)
	}
}
