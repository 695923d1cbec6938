package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotRoundTrip pins the happy path: Save then Load restores every
// decision and reproduces the LRU order.
func TestSnapshotRoundTrip(t *testing.T) {
	c := NewCache(64, 4)
	c.Put(OpGEMM, 128, 64, 128, 8)
	c.Put(OpSYRK, 128, 64, 128, 4)
	c.Put(OpSYR2K, 256, 256, 256, 16)
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}

	restored := NewCache(64, 4)
	n, err := restored.Load(path)
	if err != nil || n != 3 {
		t.Fatalf("Load = (%d, %v), want (3, nil)", n, err)
	}
	for _, tc := range []struct {
		op      Op
		m, k, n int
		threads int
	}{
		{OpGEMM, 128, 64, 128, 8},
		{OpSYRK, 128, 64, 128, 4},
		{OpSYR2K, 256, 256, 256, 16},
	} {
		if th, ok := restored.Peek(tc.op, tc.m, tc.k, tc.n); !ok || th != tc.threads {
			t.Errorf("restored %s %dx%dx%d = (%d, %v), want %d",
				tc.op, tc.m, tc.k, tc.n, th, ok, tc.threads)
		}
	}
}

// TestSnapshotLoadRejectsCorruption is the satellite table test: truncated
// JSON, garbage bytes, version skew and invalid entries must all error
// without touching the cache — an operator's damaged snapshot degrades a
// boot to cold, never to a half-loaded or crashed daemon.
func TestSnapshotLoadRejectsCorruption(t *testing.T) {
	// A valid snapshot to truncate.
	good := NewCache(64, 4)
	good.Put(OpGEMM, 128, 64, 128, 8)
	good.Put(OpSYRK, 256, 128, 256, 4)
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.json")
	if err := good.Save(goodPath); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		content string
		wantErr string
	}{
		{"truncated", string(blob[:len(blob)/2]), "decode cache snapshot"},
		{"garbage", "\x00\xff\x1bnot json at all", "decode cache snapshot"},
		{"empty file", "", "decode cache snapshot"},
		{"version skew", `{"format":"adsala-cache-snapshot-v0","entries":[]}`, "not a cache snapshot"},
		{"missing format", `{"entries":[{"op":"gemm","m":1,"k":1,"n":1,"threads":2}]}`, "not a cache snapshot"},
		{"unknown op", `{"format":"adsala-cache-snapshot-v1","entries":[{"op":"trsm","m":1,"k":1,"n":1,"threads":2}]}`, "entry 0"},
		{"zero threads", `{"format":"adsala-cache-snapshot-v1","entries":[{"op":"gemm","m":1,"k":1,"n":1,"threads":0}]}`, "invalid decision"},
		{"negative shape", `{"format":"adsala-cache-snapshot-v1","entries":[{"op":"gemm","m":-4,"k":1,"n":1,"threads":2}]}`, "invalid decision"},
		{
			// One bad entry among good ones: all-or-nothing validation.
			"bad entry last",
			`{"format":"adsala-cache-snapshot-v1","entries":[` +
				`{"op":"gemm","m":1,"k":1,"n":1,"threads":2},` +
				`{"op":"syrk","m":2,"k":2,"n":2,"threads":0}]}`,
			"entry 1",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "bad.json")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCache(64, 4)
			n, err := c.Load(path)
			if err == nil {
				t.Fatalf("Load accepted %s snapshot (%d entries)", tc.name, n)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if c.Len() != 0 {
				t.Errorf("cache holds %d entries after rejected load, want 0", c.Len())
			}
		})
	}

	// A missing file errors too (the daemon treats that as a cold start).
	c := NewCache(64, 4)
	if _, err := c.Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("Load of a missing file did not error")
	}
}
