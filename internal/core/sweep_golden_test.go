package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// TestSweepGolden pins the values a simulator sweep produces, not merely
// that two constructions agree: FNV-64a over the Float64bits of every
// Seconds, in sweep order. The constants were computed at the commit before
// the timers were collapsed into Timer.Measure; the sweep is the only thing
// training reads from a timer, so an unchanged hash means the benchmark's
// artefact is trained on the same numbers.
func TestSweepGolden(t *testing.T) {
	golden := map[ops.Op]uint64{
		ops.GEMM:  0x595307ac6eb65123,
		ops.SYRK:  0xc702f3573fb6d3d0,
		ops.SYR2K: 0x959df990736cb484,
	}
	timer, err := simtime.SimSpec("Gadi", 11, true).Build()
	if err != nil {
		t.Fatal(err)
	}
	for op, want := range golden {
		shapes, err := SampleOpShapes(sampling.DefaultDomain().WithCapMB(500), 11, op, 12)
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := MeasureSweep(timer, op, shapes, DefaultCandidates(96), 3)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, st := range sweep {
			for _, ct := range st.Times {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(ct.Seconds))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%v sweep hash %#016x, want %#016x", op, got, want)
		}
	}
}
