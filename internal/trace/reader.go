package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// ErrStop lets a scan callback terminate the scan early without an error
// reaching the caller.
var ErrStop = errors.New("trace: stop scan")

// ScanStats reports what a scan read and — for damaged traces — exactly
// what it dropped. A crashed daemon leaves a truncated final block and a
// torn disk leaves CRC mismatches; the reader recovers every intact block
// (the valid prefix, plus any intact blocks after a bad one it can
// re-synchronise to) and accounts for the rest here instead of failing.
type ScanStats struct {
	// Files is the number of trace files scanned.
	Files int
	// Records and Blocks count what was successfully decoded.
	Records int64
	Blocks  int64
	// DroppedBlocks counts blocks lost to CRC mismatches or decode errors;
	// DroppedBytes counts all bytes skipped, including a garbage or
	// truncated tail that ends a file early.
	DroppedBlocks int64
	DroppedBytes  int64
	// Corrupt holds one human-readable note per recovery event.
	Corrupt []string
}

// merge folds o into s.
func (s *ScanStats) merge(o ScanStats) {
	s.Files += o.Files
	s.Records += o.Records
	s.Blocks += o.Blocks
	s.DroppedBlocks += o.DroppedBlocks
	s.DroppedBytes += o.DroppedBytes
	s.Corrupt = append(s.Corrupt, o.Corrupt...)
}

// ScanFiles streams every record of the given trace files, in file order,
// through fn. The *Record passed to fn is reused between calls; callers
// that retain it must copy it. Corruption within a file is recovered and
// reported in the stats; fn returning ErrStop ends the scan cleanly, any
// other error aborts it.
func ScanFiles(paths []string, fn func(*Record) error) (ScanStats, error) {
	var total ScanStats
	for _, path := range paths {
		st, err := ScanFile(path, fn)
		total.merge(st)
		if errors.Is(err, ErrStop) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ScanFile streams one trace file through fn (see ScanFiles). A missing or
// version-skewed header is an error — there is nothing to recover — while
// damage after the header is recovered around and reported in the stats.
func ScanFile(path string, fn func(*Record) error) (ScanStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ScanStats{}, err
	}
	defer f.Close()
	st := ScanStats{Files: 1}

	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return st, fmt.Errorf("trace: %s: short header: %w", path, err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		return st, fmt.Errorf("trace: %s is not a trace file (bad magic)", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(fileMagic):]); v != Version {
		return st, fmt.Errorf("trace: %s: format version %d (this reader supports %d)", path, v, Version)
	}

	var (
		rec     Record
		bhdr    [blockHdr]byte
		payload []byte
		offset  = int64(headerLen)
	)
	note := func(format string, args ...any) {
		st.Corrupt = append(st.Corrupt, fmt.Sprintf("%s: %s", path, fmt.Sprintf(format, args...)))
	}
	dropTail := func(already int64, reason string) {
		n, _ := io.Copy(io.Discard, br)
		st.DroppedBytes += already + n
		note("%s at offset %d; %d trailing bytes dropped", reason, offset, already+n)
	}
	for {
		n, err := io.ReadFull(br, bhdr[:])
		if err == io.EOF {
			return st, nil // clean end of file
		}
		if err != nil {
			dropTail(int64(n), "truncated block header")
			return st, nil
		}
		if binary.LittleEndian.Uint32(bhdr[0:]) != blockMagic {
			// Either a torn write or garbage appended to the file: the
			// framing is lost, so the rest of the file is unrecoverable.
			dropTail(int64(blockHdr), "bad block magic")
			return st, nil
		}
		plen := int(binary.LittleEndian.Uint32(bhdr[4:]))
		if plen <= 0 || plen > maxBlockPayload {
			dropTail(int64(blockHdr), fmt.Sprintf("implausible block length %d", plen))
			return st, nil
		}
		payload, err = readPayload(br, payload, plen)
		if err != nil {
			dropTail(int64(blockHdr+len(payload)), "truncated final block")
			return st, nil
		}
		blockLen := int64(blockHdr + plen)
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(bhdr[8:]) {
			// The framing said where the block ends, so skip just this
			// block and re-synchronise at the next header.
			st.DroppedBlocks++
			st.DroppedBytes += blockLen
			note("block CRC mismatch at offset %d; %d-byte block dropped", offset, blockLen)
			offset += blockLen
			continue
		}
		recs, err := scanBlock(payload, &rec, fn)
		st.Records += int64(recs)
		if err != nil {
			if errors.Is(err, errBadBlock) {
				// CRC-valid but undecodable: a writer bug rather than disk
				// damage. Drop the block, keep the file.
				st.DroppedBlocks++
				st.DroppedBytes += blockLen
				note("undecodable block at offset %d; dropped", offset)
				offset += blockLen
				continue
			}
			return st, err
		}
		st.Blocks++
		offset += blockLen
	}
}

// readPayload reads a block's n-byte payload into buf, growing it only as
// the bytes arrive, a step at a time: a declared length is not an allocation
// request, so a torn or forged block header costs what the file holds, not
// what it claims. On a short read it returns what was read with the error.
func readPayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	const step = 4 << 10
	buf = buf[:0]
	for len(buf) < n {
		k := min(n-len(buf), step)
		buf = slices.Grow(buf, k)
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+k])
		buf = buf[:len(buf)+got]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// errBadBlock marks a CRC-valid payload that fails to decode.
var errBadBlock = errors.New("trace: malformed block payload")

// scanBlock decodes one block payload, passing each record to fn. It
// returns how many records fn consumed. A record is accepted only in the
// encoding a writer gives it (appendRecord: minimal uvarints, values in
// range), so what a scan returns from a CRC-valid block is always a prefix
// of the records a writer put there.
func scanBlock(payload []byte, rec *Record, fn func(*Record) error) (int, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, errBadBlock
	}
	pos := n
	first, n := binary.Uvarint(payload[pos:])
	if n <= 0 {
		return 0, errBadBlock
	}
	pos += n
	prev := int64(first)
	done := 0
	var enc [maxRecordLen]byte
	for i := uint64(0); i < count; i++ {
		n := decodeRecord(payload[pos:], rec, prev)
		if n == 0 || !bytes.Equal(appendRecord(enc[:0], rec, prev), payload[pos:pos+n]) {
			return done, errBadBlock
		}
		pos += n
		prev = rec.TS
		if err := fn(rec); err != nil {
			return done, err
		}
		done++
	}
	if pos != len(payload) {
		return done, errBadBlock
	}
	return done, nil
}
