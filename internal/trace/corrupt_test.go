package trace

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// writeTrace writes n records in blocks of blockRecs and returns the single
// file's path plus its block boundaries (offset, length) in file order.
func writeTrace(t *testing.T, n int) (path string, blocks [][2]int64) {
	t.Helper()
	prefix := filepath.Join(t.TempDir(), "cap")
	// BlockBytes 1 forces a flush after every record-ish; use explicit
	// Flush batching instead for deterministic block boundaries.
	w, err := newWriter(prefix, time.Now(), writerOptions{BlockBytes: 1 << 20})
	if err != nil {
		t.Fatalf("newWriter: %v", err)
	}
	const perBlock = 10
	prev := w.BytesWritten()
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		if err := w.Append(&rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if (i+1)%perBlock == 0 {
			if err := w.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			blocks = append(blocks, [2]int64{prev, w.BytesWritten() - prev})
			prev = w.BytesWritten()
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if w.BytesWritten() != prev {
		blocks = append(blocks, [2]int64{prev, w.BytesWritten() - prev})
	}
	return tracePath(prefix, 0), blocks
}

// TestReaderCorruption is the corruption contract table: each damage mode
// recovers the expected valid records and reports what was dropped.
func TestReaderCorruption(t *testing.T) {
	const n = 35 // 3 full blocks of 10 + final block of 5
	cases := []struct {
		name        string
		mutate      func(t *testing.T, raw []byte, blocks [][2]int64) []byte
		wantRecords int
		wantBlocks  int64
		wantDropped int64 // dropped blocks
		wantBytes   bool  // DroppedBytes > 0
		wantErr     string
		wantNote    string
	}{
		{
			name: "clean",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				return raw
			},
			wantRecords: n,
			wantBlocks:  4,
		},
		{
			name: "truncated final block",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				last := blocks[len(blocks)-1]
				return raw[:last[0]+last[1]/2] // cut mid-payload
			},
			wantRecords: 30,
			wantBlocks:  3,
			wantBytes:   true,
			wantNote:    "truncated final block",
		},
		{
			name: "truncated block header",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				last := blocks[len(blocks)-1]
				return raw[:last[0]+blockHdr/2] // cut mid-header
			},
			wantRecords: 30,
			wantBlocks:  3,
			wantBytes:   true,
			wantNote:    "truncated block header",
		},
		{
			name: "CRC mismatch mid-file",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				b := blocks[1]
				raw[b[0]+blockHdr+3] ^= 0xFF // flip a payload byte of block 1
				return raw
			},
			wantRecords: 25, // blocks 0, 2, 3 survive
			wantBlocks:  3,
			wantDropped: 1,
			wantBytes:   true,
			wantNote:    "CRC mismatch",
		},
		{
			name: "version skew",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				binary.LittleEndian.PutUint32(raw[len(fileMagic):], Version+1)
				return raw
			},
			wantErr: "format version",
		},
		{
			name: "not a trace file",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				copy(raw, "NOTTRACE")
				return raw
			},
			wantErr: "bad magic",
		},
		{
			name: "garbage tail",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				return append(raw, []byte("garbage appended after a crash")...)
			},
			wantRecords: n,
			wantBlocks:  4,
			wantBytes:   true,
			wantNote:    "bad block magic",
		},
		{
			name: "implausible block length",
			mutate: func(t *testing.T, raw []byte, blocks [][2]int64) []byte {
				b := blocks[2]
				binary.LittleEndian.PutUint32(raw[b[0]+4:], 1<<30)
				return raw
			},
			wantRecords: 20, // blocks 0, 1 survive; framing lost after
			wantBlocks:  2,
			wantBytes:   true,
			wantNote:    "implausible block length",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, blocks := writeTrace(t, n)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			mutated := tc.mutate(t, append([]byte(nil), raw...), blocks)
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}

			var got []Record
			st, err := scanFile(path, func(r *Record) error {
				got = append(got, *r)
				return nil
			})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("scanFile: %v", err)
			}
			if len(got) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(got), tc.wantRecords)
			}
			if st.Blocks != tc.wantBlocks {
				t.Fatalf("Blocks = %d, want %d", st.Blocks, tc.wantBlocks)
			}
			if st.DroppedBlocks != tc.wantDropped {
				t.Fatalf("DroppedBlocks = %d, want %d", st.DroppedBlocks, tc.wantDropped)
			}
			if tc.wantBytes && st.DroppedBytes == 0 {
				t.Fatal("DroppedBytes = 0, want > 0")
			}
			if !tc.wantBytes && st.DroppedBytes != 0 {
				t.Fatalf("DroppedBytes = %d, want 0", st.DroppedBytes)
			}
			if tc.wantNote != "" {
				found := false
				for _, c := range st.Corrupt {
					if strings.Contains(c, tc.wantNote) {
						found = true
					}
				}
				if !found {
					t.Fatalf("Corrupt notes %q lack %q", st.Corrupt, tc.wantNote)
				}
			}
			// Whatever survived must be a subset of the original stream with
			// intact field values (spot-check the first survivor).
			if len(got) > 0 {
				want := testRecord(0)
				want.TS = got[0].TS // timestamps survive independently
				if got[0].M != want.M || got[0].Threads != want.Threads || got[0].Flags != want.Flags {
					t.Fatalf("first survivor mangled: %+v", got[0])
				}
			}
		})
	}
}

// TestReaderRecoveredTimelineUnskewed pins the per-block re-anchoring
// property: dropping a block must not shift the absolute timestamps of the
// blocks after it.
func TestReaderRecoveredTimelineUnskewed(t *testing.T) {
	const n = 35
	path, blocks := writeTrace(t, n)

	var clean []Record
	if _, err := scanFile(path, func(r *Record) error {
		clean = append(clean, *r)
		return nil
	}); err != nil {
		t.Fatalf("clean scan: %v", err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	b := blocks[1]
	raw[b[0]+blockHdr] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	var damaged []Record
	if _, err := scanFile(path, func(r *Record) error {
		damaged = append(damaged, *r)
		return nil
	}); err != nil {
		t.Fatalf("damaged scan: %v", err)
	}
	if len(damaged) != n-10 {
		t.Fatalf("recovered %d records, want %d", len(damaged), n-10)
	}
	// damaged = clean[0:10] ++ clean[20:35]; compare timestamps directly.
	for i := 0; i < 10; i++ {
		if damaged[i].TS != clean[i].TS {
			t.Fatalf("record %d TS skewed: %d != %d", i, damaged[i].TS, clean[i].TS)
		}
	}
	for i := 10; i < len(damaged); i++ {
		if damaged[i].TS != clean[i+10].TS {
			t.Fatalf("post-drop record %d TS skewed: %d != %d", i, damaged[i].TS, clean[i+10].TS)
		}
	}
}
