package trace

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzScanTrace feeds arbitrary bytes to scanFile as a trace file, the
// reader's trust boundary. It must never panic. It must allocate within a
// bound proportional to the input: a declared block length is not an
// allocation request. And it must return only records a clean writer
// produced, as a prefix per block: exactly what cleanRecords finds by
// walking the documented framing, CRC-valid blocks in file order, each block
// up to its first record whose writer encoding (appendRecord) is not the
// bytes it was read from. The seed corpus, testdata/fuzz/FuzzScanTrace,
// holds TestReaderCorruption's damage modes and a CRC-valid block with a
// record no writer emits.
func FuzzScanTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.trace")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		// A record takes at least 9 bytes, so this never grows inside the
		// measured scan.
		got := make([]Record, 0, len(raw)/9+1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := scanFile(path, func(r *Record) error {
			got = append(got, *r)
			return nil
		})
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > scanAllocBound(len(raw)) {
			t.Fatalf("scanning %d bytes allocated %d bytes, bound %d", len(raw), alloc, scanAllocBound(len(raw)))
		}
		want, ok := cleanRecords(raw)
		if ok != (err == nil) {
			t.Fatalf("scanFile error %v, but the header is valid: %v", err, ok)
		}
		if len(got) != len(want) || st.Records != int64(len(got)) {
			t.Fatalf("scan returned %d records (stats %d), want %d", len(got), st.Records, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("record %d is %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

// scanAllocBound is what a scan of n bytes may allocate: the buffered
// reader's 64 KiB, a payload read step and the stats, then per input byte at
// most two payload bytes (the buffer grows by doubling) and the notes of the
// blocks it could hold (one of at most a few hundred bytes per 13-byte
// block).
func scanAllocBound(n int) uint64 { return 128<<10 + 64*uint64(n) }

// cleanRecords is the oracle: the records a scan of raw returns, and false
// when raw has no valid header (scanFile's error). The framing is walked as
// the package comment documents it; a block whose magic or length is wrong
// ends the file, a CRC mismatch skips the block.
func cleanRecords(raw []byte) ([]Record, bool) {
	le := binary.LittleEndian
	if len(raw) < headerLen || string(raw[:len(fileMagic)]) != fileMagic || le.Uint32(raw[len(fileMagic):]) != Version {
		return nil, false
	}
	var recs []Record
	for p := headerLen; len(raw)-p >= blockHdr; {
		plen := int(le.Uint32(raw[p+4:]))
		if le.Uint32(raw[p:]) != blockMagic || plen <= 0 || plen > maxBlockPayload || plen > len(raw)-p-blockHdr {
			break
		}
		payload := raw[p+blockHdr : p+blockHdr+plen]
		if crc32.ChecksumIEEE(payload) == le.Uint32(raw[p+8:]) {
			recs = append(recs, blockRecords(payload)...)
		}
		p += blockHdr + plen
	}
	return recs, true
}

// blockRecords decodes one payload record by record while each record's
// writer encoding is exactly the bytes it was read from.
func blockRecords(payload []byte) []Record {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil
	}
	first, m := binary.Uvarint(payload[n:])
	if m <= 0 {
		return nil
	}
	pos, prev := n+m, int64(first)
	var out []Record
	for i := uint64(0); i < count; i++ {
		var r Record
		k := decodeRecord(payload[pos:], &r, prev)
		if k == 0 || !bytes.Equal(appendRecord(nil, &r, prev), payload[pos:pos+k]) {
			break
		}
		out = append(out, r)
		pos, prev = pos+k, r.TS
	}
	return out
}
