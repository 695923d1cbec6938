package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// writerOptions configures the block writer. The zero value selects the
// defaults.
type writerOptions struct {
	// MaxFileBytes is the size-based rotation threshold: once the current
	// file reaches it, the next block opens a new `<prefix>-NNNNN.trace`.
	// 0 selects 64 MiB; negative disables rotation.
	MaxFileBytes int64
	// BlockBytes is the target encoded-payload size of one CRC-framed
	// block. 0 selects 64 KiB.
	BlockBytes int
}

func (o writerOptions) withDefaults() writerOptions {
	if o.MaxFileBytes == 0 {
		o.MaxFileBytes = 64 << 20
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 64 << 10
	}
	return o
}

// Writer appends records to a rotating sequence of trace files as
// CRC-framed varint blocks. It is not safe for concurrent use: the
// Recorder's single drain goroutine owns it (tests and offline tools may
// drive one directly).
type Writer struct {
	prefix string
	opts   writerOptions
	start  time.Time

	f         *os.File
	fileBytes int64
	fileIdx   int
	written   int64 // total bytes across rotations

	// Current block under construction. payload holds the encoded records,
	// block the assembled count|firstTS|records payload; both are reused
	// between blocks. prevTS is the timestamp the next record's delta is
	// relative to.
	payload []byte
	block   []byte
	count   uint64
	firstTS int64
	prevTS  int64
}

// newWriter opens a block writer over `<prefix>-NNNNN.trace` files,
// continuing after the highest existing index so a restarted daemon never
// clobbers an earlier capture. start anchors the wall-clock header field of
// every file; record timestamps are monotonic nanoseconds relative to it.
func newWriter(prefix string, start time.Time, opts writerOptions) (*Writer, error) {
	if prefix == "" {
		return nil, fmt.Errorf("trace: empty file prefix")
	}
	w := &Writer{
		prefix:  prefix,
		opts:    opts.withDefaults(),
		start:   start,
		fileIdx: -1,
		payload: make([]byte, 0, opts.withDefaults().BlockBytes+maxRecordLen),
	}
	existing, err := Files(prefix)
	if err != nil {
		return nil, err
	}
	for _, path := range existing {
		if idx, ok := fileIndex(prefix, path); ok && idx > w.fileIdx {
			w.fileIdx = idx
		}
	}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate closes the current file (if any) and opens the next in sequence,
// writing its header.
func (w *Writer) rotate() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	w.fileIdx++
	f, err := os.OpenFile(tracePath(w.prefix, w.fileIdx), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, headerLen)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[len(fileMagic):], Version)
	binary.LittleEndian.PutUint64(hdr[len(fileMagic)+4:], uint64(w.start.UnixNano()))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.fileBytes = int64(headerLen)
	w.written += int64(headerLen)
	return nil
}

// Append buffers one record into the current block, flushing it to disk
// when it reaches the target block size.
func (w *Writer) Append(rec *Record) error {
	if w.count == 0 {
		w.firstTS = rec.TS
		w.prevTS = rec.TS
	}
	w.payload = appendRecord(w.payload, rec, w.prevTS)
	if ts := rec.TS; ts > w.prevTS {
		w.prevTS = ts
	}
	w.count++
	if len(w.payload) >= w.opts.BlockBytes {
		return w.Flush()
	}
	return nil
}

// Flush writes the block under construction (a no-op when it is empty),
// rotating first when the current file is full.
func (w *Writer) Flush() error {
	if w.count == 0 {
		return nil
	}
	// Assemble count | firstTS | records. The per-record deltas in payload
	// are already relative to firstTS for the first record (delta 0).
	w.block = binary.AppendUvarint(w.block[:0], w.count)
	w.block = binary.AppendUvarint(w.block, uint64(w.firstTS))
	w.block = append(w.block, w.payload...)
	full := w.block

	need := int64(blockHdr + len(full))
	if w.opts.MaxFileBytes > 0 && w.fileBytes > int64(headerLen) && w.fileBytes+need > w.opts.MaxFileBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	var hdr [blockHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], blockMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(full)))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.ChecksumIEEE(full))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(full); err != nil {
		return err
	}
	w.fileBytes += need
	w.written += need
	w.payload = w.payload[:0]
	w.count = 0
	return nil
}

// BytesWritten returns the total bytes written across all files so far.
func (w *Writer) BytesWritten() int64 { return w.written }

// Close flushes the pending block and closes the current file.
func (w *Writer) Close() error {
	flushErr := w.Flush()
	if w.f != nil {
		if err := w.f.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
		w.f = nil
	}
	return flushErr
}

// tracePath returns the path of the idx-th file of a prefix.
func tracePath(prefix string, idx int) string {
	return fmt.Sprintf("%s-%05d.trace", prefix, idx)
}

// fileIndex parses the rotation index out of a trace path for the prefix.
func fileIndex(prefix, path string) (int, bool) {
	var idx int
	if _, err := fmt.Sscanf(path, prefix+"-%d.trace", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// Files returns the trace files of a capture prefix in rotation order. A
// path that is itself an existing file is returned as-is, so tools accept
// either a prefix or a single file.
func Files(prefix string) ([]string, error) {
	if st, err := os.Stat(prefix); err == nil && !st.IsDir() {
		return []string{prefix}, nil
	}
	matches, err := filepath.Glob(prefix + "-*.trace")
	if err != nil {
		return nil, err
	}
	type indexed struct {
		idx  int
		path string
	}
	var files []indexed
	for _, m := range matches {
		if idx, ok := fileIndex(prefix, m); ok {
			files = append(files, indexed{idx, m})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].idx < files[j].idx })
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.path
	}
	return out, nil
}
