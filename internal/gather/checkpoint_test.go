package gather

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unicode"
)

// FuzzOpenCheckpoint feeds arbitrary bytes to openCheckpoint as the
// checkpoint of a three-unit sweep. It must never panic; every unit it
// returns must match the plan; and the file it leaves must be a prefix of
// the input that a second open reads back to the same units without
// changing a byte — so a valid prefix followed by a torn line is kept and
// truncated to exactly that prefix. The seed corpus is
// testdata/fuzz/FuzzOpenCheckpoint.
func FuzzOpenCheckpoint(f *testing.F) {
	spec := SweepSpec{Session: "00000000c0ffee00", Op: "gemm"}
	units := planUnits(6, 2)
	discard := func(string, ...any) {}
	path := filepath.Join(f.TempDir(), "gather.ckpt")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		completed, ck, err := openCheckpoint(path, spec, units, 6, discard)
		if err != nil {
			return
		}
		ck.close()
		for id, timings := range completed {
			if id < 0 || id >= len(units) || len(timings) != units[id].Count {
				t.Fatalf("unit %d with %d timings returned; the plan is %v", id, len(timings), units)
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(blob, kept) {
			t.Fatalf("the file left behind is not a prefix of the input:\n%q\n%q", kept, blob)
		}
		// Only a torn last line (and blank lines after it) may be cut, and the
		// cut ends the prefix with a newline, ready for the next append.
		if tail := blob[len(kept):]; len(tail) > 0 {
			torn := bytes.TrimRightFunc(tail, unicode.IsSpace)
			if !bytes.HasSuffix(kept, []byte("\n")) || bytes.IndexByte(torn, '\n') >= 0 {
				t.Fatalf("truncated to %q, dropping %q: want the prefix up to the torn last line", kept, tail)
			}
		}
		again, ck, err := openCheckpoint(path, spec, units, 6, discard)
		if err != nil {
			t.Fatalf("the file left behind does not reopen: %v", err)
		}
		ck.close()
		if !reflect.DeepEqual(again, completed) {
			t.Fatalf("reopen read units %v, first open %v", keys(again), keys(completed))
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, kept) {
			t.Fatalf("reopen changed the file:\n%q\n%q", after, kept)
		}
	})
}

// keys lists the unit IDs of a completed set.
func keys[V any](m map[int]V) []int {
	var ids []int
	for id := range m {
		ids = append(ids, id)
	}
	return ids
}
