package main

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// streams renders every seeded generator's output for one seed.
func streams(seed int64) string {
	cold := newColdStream(seed)
	keys := make([]key, 1000)
	for i := range keys {
		keys[i] = cold.next()
	}
	return fmt.Sprint(keys, haltonShapes(seed, haltonCount), decisionKeys(seed, 500))
}

func TestShapeStreamsFollowTheSeed(t *testing.T) {
	if streams(3) != streams(3) {
		t.Error("the same seed gave different shape streams")
	}
	if streams(3) == streams(4) {
		t.Error("different seeds gave the same shape streams")
	}
}

func TestColdStreamNeverRepeatsWithinAPeriod(t *testing.T) {
	if coldSpace < 10*cacheCapacity {
		t.Fatalf("key space %d is under ten times the cache's %d entries", coldSpace, cacheCapacity)
	}
	s := newColdStream(5)
	seen := make(map[key]bool, coldSpace)
	for i := 0; i < coldSpace; i++ {
		q := s.next()
		if seen[q] {
			t.Fatalf("key %v repeats after %d draws", q, i)
		}
		if min(q.m, q.k, q.n) < coldLo || max(q.m, q.k, q.n) > coldHi {
			t.Fatalf("key %v leaves [%d, %d]", q, coldLo, coldHi)
		}
		seen[q] = true
	}
}

func TestHaltonShapesKeepWorkAcrossSeeds(t *testing.T) {
	work := func(seed int64) (flops float64) {
		for _, q := range haltonShapes(seed, haltonCount) {
			flops += q.flops()
		}
		return flops
	}
	a, b := work(1), work(2)
	if d := (a - b) / a; d > 0.02 || d < -0.02 {
		t.Errorf("seeds 1 and 2 do %g and %g FLOPs, more than 2%% apart", a, b)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		pct, value float64
	}{
		{99, 0, 0},          // 9 beyond p90
		{100, 90, 89},       // exactly 10 beyond p90
		{999, 95, 949},      // 49 beyond p95, 9 beyond p99
		{1000, 99, 989},     // 10 beyond p99
		{10000, 99.9, 9989}, // 10 beyond p99.9
	} {
		pct, value := tail(ramp(c.n))
		if pct != c.pct || value != c.value {
			t.Errorf("tail of %d samples = p%g %g, want p%g %g", c.n, pct, value, c.pct, c.value)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: spanCall, parent: -1, start: 0, end: 100},
		{name: spanPredict, parent: 0, start: 0, end: 30},
		{name: spanRank, parent: 1, start: 0, end: 25},
		{name: spanKernel, parent: 0, start: 30, end: 90},
		{name: spanPut, parent: 1, start: 25, end: 40}, // sticks out of its parent: clipped to 5
		{name: spanReport, parent: -1, op: 1, start: 100, end: 150},
		{name: spanHandler, parent: 5, op: 1, start: 110, end: 130},
		{name: spanCall, parent: -1, op: 2, start: 150, end: 170, partial: true},
		{name: spanPredict, parent: 7, op: 2, start: 150, end: 165},
	}
	want := []float64{10, 0, 25, 60, 15, 30, 20, 5, 15}
	got := selfTimes(spans)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName, perOp := layerTimes(spans)
	// Three operations; each one's self times sum to what its root and any
	// span sticking out of a parent cover. The partial one counts here but
	// not in the per-name self times.
	if fmt.Sprint(perOp) != "[110 50 20]" {
		t.Errorf("perOp = %v, want [110 50 20]", perOp)
	}
	if fmt.Sprint(byName[spanPredict]) != "[0]" || fmt.Sprint(byName[spanCall]) != "[10]" {
		t.Errorf("byName = %v: the partial operation's spans must be left out", byName)
	}
	if fmt.Sprint(byName[spanHandler]) != "[20]" || fmt.Sprint(byName[spanReport]) != "[30]" {
		t.Errorf("byName = %v, want handler [20] and report [30]", byName)
	}
	if got := groupMeans([]float64{1, 3, 5, 7, 100}, 2); fmt.Sprint(got) != "[2 6]" {
		t.Errorf("groupMeans = %v, want [2 6]", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 100, 60, 140, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", steady, steady, false, verdictOK},
		{"slower within bound", steady, scaled(1.05), false, verdictOK},
		{"slower beyond bound", steady, scaled(1.2), false, verdictBreach},
		{"higher is better, lower beyond bound", steady, scaled(0.8), true, verdictBreach},
		{"higher is better, higher", steady, scaled(1.3), true, verdictOK},
		{"spread beyond bound", noisy, noisy, false, verdictUnresolved},
		{"spread beyond bound, every run better", noisy, scaled(0.5), false, verdictOK},
	} {
		if _, _, _, _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", workloadNames, names)
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, BENCHMARK.json has %d", len(endToEnd), len(d.EndToEnd))
	}
	for i, e := range endToEnd {
		better := map[bool]string{true: "higher", false: "lower"}[e.higher]
		if j := d.EndToEnd[i]; j.Name != e.name || j.Unit != e.unit || j.Better != better || j.Bound != e.bound {
			t.Errorf("end-to-end metric %d: %+v, BENCHMARK.json has %+v", i, e, j)
		}
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json has %d", len(perLayer), len(d.PerLayer))
	}
	for i, p := range perLayer {
		if j := d.PerLayer[i]; j.Name != p.name || j.Unit != p.unit {
			t.Errorf("per-layer metric %d: %+v, BENCHMARK.json has %+v", i, p, j)
		}
	}
}

// TestSmoke runs every workload for 300 ms, untraced and traced, and checks
// that each run is correct and reports exactly the declared metric names.
func TestSmoke(t *testing.T) {
	d := readDeclared(t)
	var wantE2E, wantLayers []string
	for _, e := range d.EndToEnd {
		wantE2E = append(wantE2E, e.Name)
	}
	for _, p := range d.PerLayer {
		wantLayers = append(wantLayers, p.Name)
	}
	sort.Strings(wantE2E)
	sort.Strings(wantLayers)
	out := t.TempDir()
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runConfig{workload: name, seed: 2, seconds: 0.3, traced: traced, smoke: true, out: out})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%t: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.errs)
			}
			var got []string
			for metric, m := range res.Metrics {
				got = append(got, metric)
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, metric, m.Value)
				}
			}
			sort.Strings(got)
			want := wantE2E
			if traced {
				want = wantLayers
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s traced=%t reports %v, BENCHMARK.json declares %v", name, traced, got, want)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", name, err)
		}
	}
}

// TestSurfaceIsPinned checks that surface.go is the only file that imports
// the program: what the benchmark depends on is listed in one place.
func TestSurfaceIsPinned(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if file == "surface.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "repro" || strings.HasPrefix(path, "repro/") {
				t.Errorf("%s imports %s; only surface.go may import the program", file, path)
			}
		}
	}
}
