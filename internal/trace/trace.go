// Package trace is the serving flight recorder and its offline reader: an
// opt-in capture path that appends one compact binary record per
// thread-selection decision (and per measured kernel execution, when the
// decision drives an in-process call), plus the streaming reader that
// adsala-replay uses to backtest candidate artefacts against the captured
// traffic.
//
// The capture half is built for the serving hot path: Recorder.Record copies
// a fixed-size struct into a pre-allocated buffer under one short lock — no
// allocation, no I/O — and a single drain goroutine swaps the buffer out and
// varint-encodes it into CRC-framed blocks with size-based file rotation.
// When the buffer fills before the drain swaps it, new records are dropped
// instead of blocking the request that produced them (drop-don't-block), and
// every drop is counted.
//
// On disk a trace is a sequence of files `<prefix>-NNNNN.trace`, each a
// fixed header followed by self-delimiting blocks:
//
//	header: 8-byte magic "ADSALATR" | uint32 version | uint64 unix-nano start
//	block:  uint32 magic | uint32 payload len | uint32 IEEE CRC | payload
//	payload: uvarint count | uvarint first-record timestamp |
//	         per record: uvarint ts delta | op byte | flags byte |
//	                     uvarint m, k, n, threads, predicted ns, measured ns
//
// Timestamps are monotonic nanoseconds since the recorder started; each
// block re-anchors at its first record's absolute timestamp, so a dropped
// or corrupt block never skews the timeline of the blocks after it. The
// reader (ScanFiles) recovers the valid prefix of a damaged trace and
// reports exactly what it dropped.
package trace

import (
	"encoding/binary"

	"repro/internal/ops"
)

// Record flags. A record is a decision event unless FlagMeasured is set, in
// which case it carries the measured wall time of one executed kernel call
// (the in-process facade path; a serving daemon never executes, so its
// traces hold decision records only).
const (
	// FlagCacheHit marks a decision answered from the decision cache.
	FlagCacheHit uint8 = 1 << iota
	// FlagFallback marks a decision answered by the deterministic heuristic
	// instead of a model (degraded mode).
	FlagFallback
	// FlagWarmup marks synthetic cache warm-up traffic. Reserved: nothing
	// writes it any more, but captures of earlier daemons carry it and
	// replay skips such records.
	FlagWarmup
	// FlagMeasured marks a measurement record: MeasuredNs holds the wall
	// time of one executed call at the recorded thread count. Measurement
	// records are not decisions; replay scores them as labelled data.
	FlagMeasured
)

// Record is one flight-recorder event. The struct layout is the in-memory
// buffer entry; the on-disk encoding is the varint form described in the
// package comment.
type Record struct {
	// TS is the event time in monotonic nanoseconds since the recorder
	// started. Recorder.Record stamps it; callers leave it zero.
	TS int64
	// PredictedNs is the model-predicted runtime of the chosen thread count
	// in nanoseconds; 0 when no ranking ran (cache hits, fallbacks,
	// measurement records).
	PredictedNs int64
	// MeasuredNs is the measured runtime of one executed call in
	// nanoseconds; 0 unless FlagMeasured is set.
	MeasuredNs int64
	// M, K, N is the op's canonical feature triple.
	M, K, N int32
	// Threads is the chosen (decision records) or executed (measurement
	// records) thread count.
	Threads int32
	// Op is the registry operation the record applies to.
	Op ops.Op
	// Flags is the Flag* bit set.
	Flags uint8
}

// IsDecision reports whether the record is a decision event (as opposed to
// a measurement annotation).
func (r *Record) IsDecision() bool { return r.Flags&FlagMeasured == 0 }

// IsWarmup reports whether the record came from synthetic warm-up traffic.
func (r *Record) IsWarmup() bool { return r.Flags&FlagWarmup != 0 }

// File format constants.
const (
	// Version is the on-disk trace format version this package writes.
	Version = 1

	fileMagic  = "ADSALATR"
	headerLen  = len(fileMagic) + 4 + 8 // magic | version | unix-nano start
	blockMagic = 0xB10CAD5A
	blockHdr   = 12 // magic | payload len | CRC32

	// maxRecordLen bounds one encoded record: two tag bytes plus seven
	// uvarints of at most 10 bytes each.
	maxRecordLen = 2 + 7*binary.MaxVarintLen64

	// maxBlockPayload bounds a block payload the reader will accept; a
	// declared length beyond it is treated as corruption, not an
	// allocation request.
	maxBlockPayload = 16 << 20
)

// appendRecord encodes rec into buf, expressing its timestamp as a delta
// from prev (clamped at zero for a caller that appends out of timestamp
// order; the Recorder never does). It returns the extended buffer.
func appendRecord(buf []byte, rec *Record, prev int64) []byte {
	delta := rec.TS - prev
	if delta < 0 {
		delta = 0
	}
	buf = binary.AppendUvarint(buf, uint64(delta))
	buf = append(buf, byte(rec.Op), rec.Flags)
	buf = binary.AppendUvarint(buf, uint64(rec.M))
	buf = binary.AppendUvarint(buf, uint64(rec.K))
	buf = binary.AppendUvarint(buf, uint64(rec.N))
	buf = binary.AppendUvarint(buf, uint64(rec.Threads))
	buf = binary.AppendUvarint(buf, uint64(rec.PredictedNs))
	buf = binary.AppendUvarint(buf, uint64(rec.MeasuredNs))
	return buf
}

// decodeRecord decodes one record from buf into rec, resolving its
// timestamp against prev. It returns the bytes consumed, or 0 when buf is
// malformed.
func decodeRecord(buf []byte, rec *Record, prev int64) int {
	pos := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	delta, ok := next()
	if !ok {
		return 0
	}
	if pos+2 > len(buf) {
		return 0
	}
	rec.Op = ops.Op(buf[pos])
	rec.Flags = buf[pos+1]
	pos += 2
	var vals [6]uint64
	for i := range vals {
		v, ok := next()
		if !ok {
			return 0
		}
		vals[i] = v
	}
	rec.M, rec.K, rec.N = int32(vals[0]), int32(vals[1]), int32(vals[2])
	rec.Threads = int32(vals[3])
	rec.PredictedNs, rec.MeasuredNs = int64(vals[4]), int64(vals[5])
	rec.TS = prev + int64(delta)
	return pos
}
