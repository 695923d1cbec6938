package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names: one per layer boundary the benchmark can time from outside.
const (
	spanCall = iota // adsala: one BLAS call, decision to recorded measurement
	spanPredict
	spanRank
	spanRow
	spanPut
	spanKernel
	spanRecord
	spanRoundtrip // serve.client: request written to response read
	spanReport    // serve.client: the same for a /measured report
	spanHandler
	spanBatch
	numSpans
)

var spanNames = [numSpans]string{
	"adsala.call", "serve.engine.predict", "core.rank", "features.row",
	"serve.cache.put", "blas.kernel", "serve.engine.record_measured",
	"serve.client.roundtrip", "serve.client.report", "serve.server.handler", "serve.engine.batch",
}

// span is one timed interval: times are nanoseconds on the tracer's clock,
// parent is an index into the same tracer (-1 for a root), op ties the
// spans of one operation together.
type span struct {
	name       uint8
	parent     int32
	op         int32
	start, end int64
	// partial marks a root whose operation is not fully decomposed (a miss
	// whose inner layers were not timed again): it counts in the
	// per-operation sums, not in the per-name self times.
	partial bool
}

// tracer keeps spans in memory; one goroutine owns it. It stops recording
// when full, which also ends the traced segment.
type tracer struct {
	base  time.Time
	spans []span
}

// maxSpans bounds one tracer: enough operations for stable medians, small
// enough to write out.
const maxSpans = 1 << 17

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpans)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// room reports whether another operation of up to n spans fits.
func (t *tracer) room(n int) bool { return len(t.spans)+n <= cap(t.spans) }

func (t *tracer) add(name int, parent, op int, start, end int64) int {
	t.spans = append(t.spans, span{name: uint8(name), parent: int32(parent), op: int32(op), start: start, end: end})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// its direct children cover (children of one parent are laid out without
// overlap; a child is clipped to its parent), aligned with spans.
func selfTimes(spans []span) []float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[s.parent] += hi - lo
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(max(0, s.end-s.start-covered[i]))
	}
	return out
}

// layerTimes splits the spans' self times by span name (fully decomposed
// operations only), and sums them per operation (a root span and
// everything under it).
func layerTimes(spans []span) (byName [numSpans][]float64, perOp []float64) {
	self := selfTimes(spans)
	root := make([]int, len(spans)) // the span's root span
	op := make([]int, len(spans))   // index into perOp
	for i, s := range spans {
		if s.parent < 0 {
			root[i], op[i] = i, len(perOp)
			perOp = append(perOp, 0)
		} else {
			root[i], op[i] = root[s.parent], op[s.parent]
		}
		perOp[op[i]] += self[i]
		if !spans[root[i]].partial {
			byName[s.name] = append(byName[s.name], self[i])
		}
	}
	return byName, perOp
}

// writeTrace writes the spans as JSON rows [name, start, end, parent, op].
func writeTrace(path string, tracers []*tracer) error {
	type row struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Client int    `json:"client"`
		// Partial is set on the root of an operation that is not fully decomposed.
		Partial bool `json:"partial,omitempty"`
	}
	var rows []row
	for c, t := range tracers {
		for _, s := range t.spans {
			rows = append(rows, row{spanNames[s.name], s.start, s.end, s.parent, s.op, c, s.partial})
		}
	}
	blob, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
