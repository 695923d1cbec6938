package obs

import (
	"bufio"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// buildTestRegistry assembles one of every view kind over deterministic
// owner state — the fixture behind the golden-file test.
func buildTestRegistry() *Registry {
	var requests [2]atomic.Int64
	requests[0].Add(42)
	requests[1].Add(7)
	var errors atomic.Int64
	errors.Add(1)
	r := NewRegistry()
	r.CounterFunc("test_requests_total", "Requests served.", view(&requests[0]), L("route", "predict"))
	r.CounterFunc("test_requests_total", "Requests served.", view(&requests[1]), L("route", "batch"))
	r.CounterFunc("test_errors_total", "Errors encountered.", view(&errors))
	r.GaugeFunc("test_temperature", "A gauge.", func() float64 { return 36.6 })
	r.GaugeFunc("test_cache_entries", "Entries cached.", func() float64 { return 128 }, L("shard", "0"))
	r.CounterFunc("test_decisions_total", "Decisions made.", func() float64 { return 99 }, L("op", "gemm"))
	r.CounterFunc("test_escaping_total", "Label escaping.", func() float64 { return 0 },
		L("path", `C:\tmp`), L("quote", `say "hi"`), L("nl", "a\nb"))

	h := NewHistogram(1e-9)
	for _, ns := range []int64{500, 900, 1500, 3000, 3100, 64000, 1000000} {
		h.Observe(ns)
	}
	r.RegisterHistogram("test_latency_seconds", "Latency distribution.", h, L("op", "gemm"))
	r.RegisterHistogram("test_empty_seconds", "Never observed.", NewHistogram(1e-9))
	return r
}

// view is a counter view over an owner's atomic, as the daemons register
// theirs.
func view(v *atomic.Int64) func() float64 {
	return func() float64 { return float64(v.Load()) }
}

// TestExpositionGolden pins the full text exposition against the
// committed golden file. Regenerate with -update on a deliberate format
// change.
func TestExpositionGolden(t *testing.T) {
	var b strings.Builder
	buildTestRegistry().WriteText(&b)
	got := b.String()

	const golden = "testdata/metrics.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exposition differs from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestExpositionInvariants parses the exposition and checks the format
// invariants the satellite task names: every series has HELP/TYPE,
// histogram buckets are cumulative and monotone, +Inf is present and
// equals _count.
func TestExpositionInvariants(t *testing.T) {
	var b strings.Builder
	buildTestRegistry().WriteText(&b)
	checkExposition(t, b.String())
}

// checkExposition validates Prometheus text format invariants.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	lastBucket := map[string]int64{} // per histogram series (labels minus le)
	infSeen := map[string]int64{}
	countSeen := map[string]int64{}

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line %q", line)
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		series, valText := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("series %s: bad value %q: %v", series, valText, err)
		}
		name := series
		labels := ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name, labels = series[:i], series[i:]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && typed[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if !helped[base] || typed[base] == "" {
			t.Errorf("series %s has no HELP/TYPE for %s", series, base)
		}
		if typed[base] == "histogram" && strings.HasSuffix(name, "_bucket") {
			le, rest := extractLE(t, labels)
			key := base
			if rest != "" {
				key = base + "{" + rest + "}"
			}
			if int64(val) < lastBucket[key] {
				t.Errorf("histogram %s: cumulative bucket count %v below previous %d", key, val, lastBucket[key])
			}
			lastBucket[key] = int64(val)
			if le == "+Inf" {
				infSeen[key] = int64(val)
			}
		}
		if typed[base] == "histogram" && strings.HasSuffix(name, "_count") {
			countSeen[base+labels] = int64(val)
		}
		if (typed[base] == "counter" || typed[base] == "histogram") && val < 0 {
			t.Errorf("monotone series %s has negative value %v", series, val)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(infSeen) == 0 {
		t.Fatal("no histogram +Inf buckets found")
	}
	for key, count := range countSeen {
		inf, ok := infSeen[key]
		if !ok {
			t.Errorf("histogram %s has _count but no +Inf bucket", key)
			continue
		}
		if inf != count {
			t.Errorf("histogram %s: +Inf bucket %d != _count %d", key, inf, count)
		}
	}
}

// extractLE pulls the le label out of a rendered label suffix, returning
// it and the suffix without it.
func extractLE(t *testing.T, labels string) (le, rest string) {
	t.Helper()
	i := strings.Index(labels, `le="`)
	if i < 0 {
		t.Fatalf("bucket labels %q lack le", labels)
	}
	j := strings.Index(labels[i+4:], `"`)
	le = labels[i+4 : i+4+j]
	rest = labels[:i] + labels[i+4+j+1:]
	rest = strings.Trim(strings.Trim(rest, "{}"), ",")
	return le, rest
}

// TestLabelEscaping checks the three escape sequences of the format.
func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	r := NewRegistry()
	r.CounterFunc("esc_total", "x", func() float64 { return 1 }, L("v", "back\\slash \"quoted\"\nnewline"))
	r.WriteText(&b)
	want := `esc_total{v="back\\slash \"quoted\"\nnewline"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("exposition:\n%s\nwant line:\n%s", b.String(), want)
	}
}

// TestRegistryIdempotent checks that re-registering a series rebinds it
// instead of adding a second one, and that type conflicts and invalid names
// panic.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("idem_total", "x", func() float64 { return 1 }, L("k", "v"))
	r.CounterFunc("idem_total", "x", func() float64 { return 2 }, L("k", "v"))
	h := NewHistogram(1e-9)
	h.Observe(1000)
	r.RegisterHistogram("idem_seconds", "x", h)
	r.RegisterHistogram("idem_seconds", "x", h)
	var b strings.Builder
	r.WriteText(&b)
	text := b.String()
	if n := strings.Count(text, "idem_total{"); n != 1 || !strings.Contains(text, `idem_total{k="v"} 2`+"\n") {
		t.Errorf("re-registration: %d counter series, want one bound to the latest view:\n%s", n, text)
	}
	if n := strings.Count(text, "idem_seconds_count "); n != 1 {
		t.Errorf("re-registration: %d histogram series, want 1:\n%s", n, text)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("type conflict did not panic")
			}
		}()
		r.GaugeFunc("idem_total", "x", func() float64 { return 0 })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid metric name did not panic")
			}
		}()
		r.CounterFunc("0bad-name", "x", func() float64 { return 0 })
	}()
}

// TestGauge checks that a gauge view reads its owner's value at scrape
// time: the last value set, not the one at registration.
func TestGauge(t *testing.T) {
	var bits atomic.Uint64 // a fractional gauge its owner keeps as float64 bits
	r := NewRegistry()
	r.GaugeFunc("g", "x", func() float64 { return math.Float64frombits(bits.Load()) })
	bits.Store(math.Float64bits(2.5))
	bits.Store(math.Float64bits(1.5))
	var b strings.Builder
	r.WriteText(&b)
	if !strings.Contains(b.String(), "\ng 1.5\n") {
		t.Errorf("gauge view, want 1.5:\n%s", b.String())
	}
}

// TestHandler serves the exposition over HTTP with the text content type.
func TestHandler(t *testing.T) {
	srv := httptest.NewServer(buildTestRegistry().Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	checkExposition(t, string(body))
}
