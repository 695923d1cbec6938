package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/machine"
	"repro/internal/ops"
	"repro/internal/sampling"
	"repro/internal/simtime"
)

// TestSweepGolden pins the values a simulator sweep produces, not merely
// that two constructions agree: FNV-64a over the Float64bits of every
// Seconds, in sweep order. The amd64 constants were computed at the commit
// before the timers were collapsed into Timer.Measure; the sweep is the only
// thing training reads from a timer, so an unchanged hash means the
// benchmark's artefact is trained on the same numbers.
//
// The simulator's noise goes through math.Exp and math.Log, which are
// assembly on amd64 and pure Go on 386; the two differ in the last bit for
// some arguments, so 386 has constants of its own. An arch-independent exp
// would move the amd64 sweep, and with it every artefact trained on the
// simulator.
func TestSweepGolden(t *testing.T) {
	golden := map[ops.Op]uint64{
		ops.GEMM:  0x595307ac6eb65123,
		ops.SYRK:  0xc702f3573fb6d3d0,
		ops.SYR2K: 0x959df990736cb484,
	}
	if runtime.GOARCH == "386" {
		golden = map[ops.Op]uint64{
			ops.GEMM:  0x102411c06923d336,
			ops.SYRK:  0x5887f3a8383cc8a9,
			ops.SYR2K: 0x243be9efb4197437,
		}
	}
	sim := simtime.DefaultConfig(machine.Gadi())
	sim.HT = true
	sim.Seed = 11
	timer := simtime.New(sim)
	for op, want := range golden {
		sweep, err := Gather(GatherConfig{
			Timer:      timer,
			Domain:     sampling.DefaultDomain().WithCapMB(500),
			NumShapes:  12,
			Candidates: DefaultCandidates(96),
			Iters:      3,
			Seed:       11,
			Op:         op,
		})
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
