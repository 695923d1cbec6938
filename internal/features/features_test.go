package features

import (
	"testing"
	"testing/quick"

	"repro/internal/sampling"
)

func TestColumnsMatchRowWidth(t *testing.T) {
	cols := Columns()
	row := Row(2, 3, 4, 5)
	if len(cols) != len(row) {
		t.Fatalf("columns %d != row width %d", len(cols), len(row))
	}
	if len(cols) != 17 {
		t.Errorf("Table II defines 9 + 8 = 17 features, got %d", len(cols))
	}
}

func TestGroup1Columns(t *testing.T) {
	g1 := Group1Columns()
	if len(g1) != 9 {
		t.Fatalf("Group 1 has %d features, want 9", len(g1))
	}
	for _, c := range g1 {
		if len(c) > 2 && c[len(c)-2:] == "/t" {
			t.Errorf("Group 1 contains parallel feature %q", c)
		}
	}
}

func TestRowValues(t *testing.T) {
	row := Row(2, 3, 4, 2)
	named := map[string]float64{}
	for i, c := range Columns() {
		named[c] = row[i]
	}
	checks := map[string]float64{
		"m": 2, "k": 3, "n": 4, "n_threads": 2,
		"m*k": 6, "m*n": 8, "k*n": 12, "m*k*n": 24, "m*k+k*n+m*n": 26,
		"m/t": 1, "k/t": 1.5, "n/t": 2,
		"m*k/t": 3, "m*n/t": 4, "k*n/t": 6, "m*k*n/t": 12, "(m*k+k*n+m*n)/t": 13,
	}
	for name, want := range checks {
		if got, ok := named[name]; !ok || got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestBuild(t *testing.T) {
	recs := []Record{
		{Shape: sampling.Shape{M: 2, K: 3, N: 4}, Threads: 2, Seconds: 0.5},
		{Shape: sampling.Shape{M: 5, K: 6, N: 7}, Threads: 8, Seconds: 1.5},
	}
	d := Build(recs)
	if d.Len() != 2 {
		t.Fatalf("dataset has %d rows", d.Len())
	}
	if d.Y[0] != 0.5 || d.Y[1] != 1.5 {
		t.Errorf("targets = %v", d.Y)
	}
	if d.X[1][0] != 5 {
		t.Errorf("row 1 m = %v", d.X[1][0])
	}
}

// Property: Group 2 features equal their Group 1 counterparts divided by the
// thread count, and all features are finite and positive for valid inputs.
func TestRowConsistencyProperty(t *testing.T) {
	f := func(mr, kr, nr, tr uint16) bool {
		m, k, n := 1+int(mr%5000), 1+int(kr%5000), 1+int(nr%5000)
		threads := 1 + int(tr%256)
		row := Row(m, k, n, threads)
		tval := float64(threads)
		// m/t, k/t, n/t at indices 9..11; mk,mn,kn,mkn,total at 4..8 map to 12..16.
		if row[9] != row[0]/tval || row[10] != row[1]/tval || row[11] != row[2]/tval {
			return false
		}
		for off := 0; off < 5; off++ {
			if row[12+off] != row[4+off]/tval {
				return false
			}
		}
		for _, v := range row {
			if v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDepOfMatchesRow checks the declared dependency classes against what
// RowInto actually computes: a ShapeOnly column must not move with the thread
// count, a ThreadsOnly column must not move with the shape, and every column
// must move with something it is declared to depend on.
func TestDepOfMatchesRow(t *testing.T) {
	if columns[threadsCol] != "n_threads" {
		t.Fatalf("threadsCol names %q", columns[threadsCol])
	}
	base := Row(37, 53, 71, 6)
	otherThreads := Row(37, 53, 71, 11)
	otherShape := Row(41, 59, 73, 6)
	counts := map[Dep]int{}
	for c := range base {
		dep := DepOf(c)
		counts[dep]++
		movesWithThreads := base[c] != otherThreads[c]
		movesWithShape := base[c] != otherShape[c]
		want := map[Dep][2]bool{
			ShapeOnly: {false, true}, ThreadsOnly: {true, false}, Mixed: {true, true},
		}[dep]
		if movesWithThreads != want[0] || movesWithShape != want[1] {
			t.Errorf("column %q declared %d: moves with threads %v, with shape %v",
				columns[c], dep, movesWithThreads, movesWithShape)
		}
	}
	if counts[ShapeOnly] != 8 || counts[ThreadsOnly] != 1 || counts[Mixed] != 8 {
		t.Errorf("class sizes %v, want 8 shape-only, 1 threads-only, 8 mixed", counts)
	}
}

// TestRowIntoZeroAlloc pins the //adsala:zeroalloc contract: filling a
// caller-owned row allocates nothing.
func TestRowIntoZeroAlloc(t *testing.T) {
	dst := make([]float64, len(Columns()))
	if n := testing.AllocsPerRun(1000, func() {
		RowInto(512, 256, 384, 16, dst)
	}); n != 0 {
		t.Errorf("RowInto allocates %.1f/op, want 0", n)
	}
}
