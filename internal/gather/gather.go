// Package gather distributes the install-time timing sweep across a worker
// fleet. The paper's data-gathering phase — timing every (op, shape,
// threads) configuration of the Halton sample sweep — is the single slowest
// stage of deployment and is embarrassingly parallel across identical
// machines. This package shards it:
//
//   - a Coordinator partitions the per-op sweep into work units
//     (deterministic (start, count) slices of the accepted Halton sample
//     stream, so any worker count reproduces the same total sweep),
//     sends each to a registered worker as one POST /work that answers
//     with the unit's ShapeTimings, requeues a unit whose request fails or
//     times out (retiring a worker after repeated failures), and merges
//     the answers — in sample order — into the exact input
//     core.TrainOnData consumes;
//   - a Worker is the HTTP daemon (cmd/adsala-worker) executing units,
//     one at a time, inside the /work request through the operation
//     registry's kernels on a simtime backend built from the
//     coordinator's wire Spec (RealTimer for real installs, the Simulator
//     for tests and CI);
//   - a resumable on-disk checkpoint (JSONL of completed units) lets an
//     interrupted sweep restart where it left off.
//
// The Coordinator implements core.Gatherer, so core.Train switches between
// the single-node and distributed paths without knowing which it got. For a
// deterministic timer (the Simulator) the merged distributed sweep is
// byte-identical to the single-node gather — pinned by test.
package gather

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// Unit is one work unit: a contiguous slice [Start, Start+Count) of the
// op's deterministic accepted-sample stream. Units carry indices, not
// shapes — any party reconstructs the shapes from the SweepSpec with
// core.SampleOpShapes, which is what makes the sharding reproducible for
// any worker count.
type Unit struct {
	ID    int `json:"id"`
	Start int `json:"start"`
	Count int `json:"count"`
}

// SweepSpec fully describes one op's sweep, so a worker reconstructs
// exactly the shapes and timings the coordinator's single-node path would
// produce. Session is the fingerprint of the sweep-defining fields: it keys
// the worker's registration and the checkpoint file to one specific sweep.
type SweepSpec struct {
	Session    string          `json:"session"`
	Op         string          `json:"op"`
	Timer      simtime.Spec    `json:"timer"`
	Domain     sampling.Domain `json:"domain"`
	Seed       int64           `json:"seed"`
	Candidates []int           `json:"candidates"`
	Iters      int             `json:"iters"`
}

// Fingerprint returns the deterministic hash of the spec (Session
// excluded): two parties computing the same fingerprint are describing the
// same sweep.
func (s SweepSpec) Fingerprint() string {
	s.Session = ""
	blob, err := json.Marshal(s)
	if err != nil {
		// Spec fields are plain data; Marshal cannot fail on them.
		panic("gather: fingerprint: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(blob)
	return fmt.Sprintf("%016x", h.Sum64())
}

// parseOp resolves and validates the spec's operation.
func (s SweepSpec) parseOp() (ops.Op, error) {
	if s.Op == "" {
		return 0, fmt.Errorf("gather: sweep spec names no op")
	}
	return ops.Parse(s.Op)
}

// validate checks the spec is executable: known op, buildable timer,
// sampleable domain, candidates present.
func (s SweepSpec) validate() error {
	if _, err := s.parseOp(); err != nil {
		return err
	}
	if len(s.Candidates) == 0 {
		return fmt.Errorf("gather: sweep spec has no candidate thread counts")
	}
	if s.Iters < 1 {
		return fmt.Errorf("gather: sweep spec Iters %d < 1", s.Iters)
	}
	if _, err := s.Timer.Build(); err != nil {
		return err
	}
	if _, err := sampling.NewSampler(s.Domain, s.Seed); err != nil {
		return err
	}
	return nil
}

// WorkRequest is the JSON body of POST /work on a worker.
type WorkRequest struct {
	Session string `json:"session"`
	Unit    Unit   `json:"unit"`
}

// UnitResult is one completed unit's timing sweep — the JSON answer of a
// successful POST /work and the line format of the checkpoint file.
type UnitResult struct {
	Session string `json:"session"`
	UnitID  int    `json:"unit_id"`
	Start   int    `json:"start"`
	Count   int    `json:"count"`
	// Worker names the daemon that executed the unit (diagnostics only; it
	// does not affect the merge).
	Worker  string              `json:"worker,omitempty"`
	Timings []core.ShapeTimings `json:"timings"`
}

// RegisterResponse is the JSON answer of POST /register.
type RegisterResponse struct {
	Worker  string `json:"worker"`
	Backend string `json:"backend"`
}

// StatusResponse is the JSON answer of /drain and of the /healthz and
// /livez probes.
type StatusResponse struct {
	Status string `json:"status"`
	// Session through Draining are populated by the health probes.
	// Completed counts the units this worker has executed to a result since
	// it started; Inflight is 1 while a unit executes.
	Session    string `json:"session,omitempty"`
	Registered bool   `json:"registered,omitempty"`
	Completed  int    `json:"completed,omitempty"`
	Inflight   int    `json:"inflight,omitempty"`
	Draining   bool   `json:"draining,omitempty"`
}

// planUnits partitions numShapes into units of unitShapes (the last unit
// may be smaller).
func planUnits(numShapes, unitShapes int) []Unit {
	var units []Unit
	for start := 0; start < numShapes; start += unitShapes {
		count := unitShapes
		if start+count > numShapes {
			count = numShapes - start
		}
		units = append(units, Unit{ID: len(units), Start: start, Count: count})
	}
	return units
}
