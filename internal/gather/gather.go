// Package gather distributes the install-time timing sweep across a worker
// fleet. The paper's data-gathering phase — timing every (op, shape,
// threads) configuration of the Halton sample sweep — is the single slowest
// stage of deployment and is embarrassingly parallel across identical
// machines. This package shards it:
//
//   - a Coordinator draws the op's whole shape sample once, with the
//     single-node gather's own call (core.SampleOpShapes), partitions it
//     into work units (contiguous (start, count) slices of that sample),
//     sends each to a worker as one POST /work carrying the sweep spec, the
//     unit's ID and its shapes, answered with the unit's ShapeTimings,
//     requeues a unit whose request fails, times out or is answered for
//     other shapes or thread counts (retiring a worker after repeated
//     failures, or at once when it refuses the sweep), and merges the
//     answers — in sample order — into the exact input core.TrainOnData
//     consumes;
//   - a Worker is the HTTP daemon (cmd/adsala-worker) timing units, one at
//     a time, inside the /work request through the operation registry's
//     kernels on a simtime backend built from the request's wire Spec
//     (RealTimer for real installs, the Simulator for tests and CI). It
//     samples nothing and keeps no session: it times exactly the shapes
//     each request carries;
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
	"slices"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// Unit is one work unit: the contiguous slice [Start, Start+Count) of the
// op's shape sample, which the coordinator draws once per sweep. Merged in
// unit order, the units' timings are the single-node sweep for any worker
// count.
type Unit struct {
	ID    int `json:"id"`
	Start int `json:"start"`
	Count int `json:"count"`
}

// shapes returns the unit's slice of the sweep's sample.
func (u Unit) shapes(sample []sampling.Shape) []sampling.Shape {
	return sample[u.Start : u.Start+u.Count]
}

// SweepSpec fully describes one op's sweep: Domain and Seed define the
// shape sample the coordinator draws, and the worker times the shapes it is
// sent with the op, timer, candidates and repetitions named here. Session
// is the fingerprint of the sweep-defining fields: it keys the checkpoint
// file to one specific sweep, and a worker refuses a spec whose Session is
// not its fingerprint.
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

// validate checks the spec is executable — known op, candidates and
// repetitions present, buildable timer — and returns its op and a timer
// built from its wire Spec.
func (s SweepSpec) validate() (ops.Op, simtime.Timer, error) {
	if s.Op == "" {
		return 0, nil, fmt.Errorf("gather: sweep spec names no op")
	}
	op, err := ops.Parse(s.Op)
	if err != nil {
		return 0, nil, err
	}
	if len(s.Candidates) == 0 {
		return 0, nil, fmt.Errorf("gather: sweep spec has no candidate thread counts")
	}
	if s.Iters < 1 {
		return 0, nil, fmt.Errorf("gather: sweep spec Iters %d < 1", s.Iters)
	}
	timer, err := s.Timer.Build()
	if err != nil {
		return 0, nil, err
	}
	return op, timer, nil
}

// WorkRequest is the JSON body of POST /work on a worker: the whole sweep
// spec, the ID of the one unit of it to execute and that unit's shapes.
// Where the unit sits in the sample is the coordinator's business; the
// worker only echoes the ID.
type WorkRequest struct {
	Spec   SweepSpec        `json:"spec"`
	ID     int              `json:"id"`
	Shapes []sampling.Shape `json:"shapes"`
}

// UnitResult is one completed unit's timing sweep — the JSON answer of a
// successful POST /work and the line format of the checkpoint file. Start
// and Count place the unit in the sample; a worker leaves them zero and the
// coordinator fills them from its plan before it merges the answer.
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

// checkResult reports whether res answers unit id of the sweep with the
// given session: its session and unit ID, then one timing per shape sent,
// each for that slot's shape at exactly the candidate thread counts in
// order. Any other answer would merge into the wrong sweep positions, or into
// the training data at thread counts nobody asked for. It checks every /work
// answer and every checkpoint line a resume reads.
func checkResult(id int, shapes []sampling.Shape, candidates []int, session string, res UnitResult) error {
	if res.Session != session || res.UnitID != id || len(res.Timings) != len(shapes) {
		return fmt.Errorf("unit %d of session %s answered as unit %d of session %s with %d timings, want %d",
			id, session, res.UnitID, res.Session, len(res.Timings), len(shapes))
	}
	threadsAsked := func(ct core.CandidateTime, c int) bool { return ct.Threads == c }
	for i, st := range res.Timings {
		if st.Shape != shapes[i] || !slices.EqualFunc(st.Times, candidates, threadsAsked) {
			return fmt.Errorf("unit %d slot %d timed shape %v at %v, want %v at threads %v",
				id, i, st.Shape, st.Times, shapes[i], candidates)
		}
	}
	return nil
}

// StatusResponse is the JSON answer of /healthz: Completed counts the
// units this worker has executed to a result since it started; Inflight is
// 1 while a unit executes.
type StatusResponse struct {
	Status    string `json:"status"`
	Completed int    `json:"completed"`
	Inflight  int    `json:"inflight"`
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
