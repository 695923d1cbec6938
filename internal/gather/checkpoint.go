package gather

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sampling"
)

// Checkpoint file format (documented in the README "Distributed training"
// section): JSON Lines. The first line is a header
//
//	{"format":"adsala-gather-checkpoint-v1","session":"<fingerprint>",
//	 "op":"gemm","units":N,"num_shapes":M}
//
// and every following line is one completed UnitResult, appended (and
// fsynced) as results stream in. On resume the coordinator replays the
// completed units and dispatches only the remainder. A trailing
// partially-written line (interrupted mid-append) is tolerated and
// discarded; a header whose session fingerprint differs from the requested
// sweep is an error — the file belongs to a different sweep and silently
// mixing the two would corrupt the merge.

const checkpointFormat = "adsala-gather-checkpoint-v1"

// checkpointHeader is the first line of a checkpoint file.
type checkpointHeader struct {
	Format    string `json:"format"`
	Session   string `json:"session"`
	Op        string `json:"op"`
	Units     int    `json:"units"`
	NumShapes int    `json:"num_shapes"`
}

// checkpoint appends completed units to the on-disk JSONL file.
type checkpoint struct {
	f *os.File
}

// openCheckpoint loads (or creates) the checkpoint for one sweep and
// returns the units already completed in it; every line must pass
// checkResult against its unit's slice of the sweep's sample. path == ""
// disables checkpointing: an empty map and a nil checkpoint (whose methods
// are no-ops) come back.
func openCheckpoint(path string, spec SweepSpec, units []Unit, sample []sampling.Shape, logf func(string, ...any)) (map[int][]core.ShapeTimings, *checkpoint, error) {
	completed := make(map[int][]core.ShapeTimings)
	if path == "" {
		return completed, nil, nil
	}

	header := checkpointHeader{
		Format:    checkpointFormat,
		Session:   spec.Session,
		Op:        spec.Op,
		Units:     len(units),
		NumShapes: len(sample),
	}

	blob, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("gather: create checkpoint: %w", err)
		}
		ck := &checkpoint{f: f}
		if err := ck.appendLine(header); err != nil {
			f.Close()
			return nil, nil, err
		}
		return completed, ck, nil
	case err != nil:
		return nil, nil, fmt.Errorf("gather: read checkpoint: %w", err)
	}

	lines := strings.Split(string(blob), "\n")
	// Drop blank trailing lines (the file ends with \n after every append).
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("gather: checkpoint %s is empty (delete it to restart the sweep)", path)
	}
	var got checkpointHeader
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil || got.Format != checkpointFormat {
		return nil, nil, fmt.Errorf("gather: %s is not a gather checkpoint", path)
	}
	if got.Session != spec.Session {
		return nil, nil, fmt.Errorf(
			"gather: checkpoint %s belongs to a different sweep (session %s, want %s) — delete it or change -checkpoint",
			path, got.Session, spec.Session)
	}
	// validEnd tracks the byte offset just past the last fully-valid line,
	// so a partially-written final line can be truncated away — appending
	// after partial bytes would corrupt the file for the next resume.
	validEnd := len(lines[0]) + 1
	for i, line := range lines[1:] {
		var res UnitResult
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			if i == len(lines[1:])-1 {
				// Interrupted mid-append: the final line is incomplete.
				logf("checkpoint: discarding partially written final line")
				if err := os.Truncate(path, int64(validEnd)); err != nil {
					return nil, nil, fmt.Errorf("gather: truncate partial checkpoint line: %w", err)
				}
				break
			}
			return nil, nil, fmt.Errorf("gather: checkpoint %s line %d: %v", path, i+2, err)
		}
		if res.UnitID < 0 || res.UnitID >= len(units) {
			return nil, nil, fmt.Errorf("gather: checkpoint %s line %d: unit %d outside the %d-unit plan",
				path, i+2, res.UnitID, len(units))
		}
		u := units[res.UnitID]
		if err := checkResult(u, u.shapes(sample), spec.Candidates, spec.Session, res); err != nil {
			return nil, nil, fmt.Errorf("gather: checkpoint %s line %d: %w", path, i+2, err)
		}
		completed[res.UnitID] = res.Timings
		validEnd += len(line) + 1
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("gather: reopen checkpoint: %w", err)
	}
	if len(completed) > 0 {
		logf("checkpoint: resuming — %d of %d units already complete", len(completed), len(units))
	}
	return completed, &checkpoint{f: f}, nil
}

// appendLine writes one JSON value as a line and syncs it to disk, so a
// completed unit survives a coordinator crash.
func (c *checkpoint) appendLine(v any) error {
	if c == nil {
		return nil
	}
	blob, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("gather: encode checkpoint line: %w", err)
	}
	w := bufio.NewWriter(c.f)
	w.Write(blob)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		return fmt.Errorf("gather: write checkpoint: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("gather: sync checkpoint: %w", err)
	}
	return nil
}

// append records one completed unit.
func (c *checkpoint) append(res UnitResult) error {
	if c == nil {
		return nil
	}
	return c.appendLine(res)
}

// close releases the file handle.
func (c *checkpoint) close() {
	if c != nil {
		c.f.Close()
	}
}
