package core

import (
	"testing"

	"repro/internal/ops"
)

func TestDirectThreadModel(t *testing.T) {
	data, err := gather(quickGather(60))
	if err != nil {
		t.Fatal(err)
	}
	d, err := TrainDirectThreadModel(data, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions are clamped to [1, max candidate].
	for _, sh := range [][3]int{{1, 1, 1}, {64, 2048, 64}, {8000, 8000, 8000}} {
		got := d.Predict(sh[0], sh[1], sh[2])
		if got < 1 || got > 96 {
			t.Errorf("shape %v: predicted %d threads", sh, got)
		}
	}
	// Large square shapes should get more threads than tiny ones on average.
	tiny := d.Predict(32, 32, 32)
	big := d.Predict(20000, 20000, 20000)
	if big < tiny {
		t.Errorf("big shape %d threads < tiny shape %d", big, tiny)
	}
	if _, err := TrainDirectThreadModel(nil, 1, true); err == nil {
		t.Error("empty data should error")
	}
}

func TestLibraryColumnsRestriction(t *testing.T) {
	res := quickTrain(t, 50)
	// Rebuild a library restricted to Group 1 columns via the training path.
	cfg := DefaultTrainConfig(quickGather(50), "Gadi", 48)
	cfg.Models = DefaultModels(1, true)[:1] // linear only: fast
	sub, err := TrainOnDataWithColumns(cfg, res.Data, []string{"m", "k", "n", "n_threads", "m*k*n"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Library.OptimalThreadsOp(ops.GEMM, 500, 500, 500); got < 1 || got > 96 {
		t.Errorf("restricted library choice %d", got)
	}
	if len(sub.Library.ModelFor(ops.GEMM).Pipeline.InputCols) != 5 {
		t.Errorf("pipeline sees %d cols, want 5", len(sub.Library.ModelFor(ops.GEMM).Pipeline.InputCols))
	}
}
