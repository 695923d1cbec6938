package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden harness mirrors x/tools' analysistest on top of the project
// loader: each testdata package marks the diagnostics it expects with
// trailing comments of the form
//
//	// want `regex` `another regex`
//
// one backquoted regex per expected diagnostic on that line. Lines without
// a want comment are the negative cases — any diagnostic there fails the
// test. Testdata packages are invisible to ./... (go list skips testdata
// directories), so the suite's self-hosted CI run never sees their
// deliberate violations; the harness loads them by explicit path.

var wantRe = regexp.MustCompile("`([^`]*)`")

// loadGolden loads explicit testdata patterns relative to the repo root.
func loadGolden(t *testing.T, patterns ...string) *Module {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Load(root, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// runGolden runs one analyzer over the given testdata packages and
// compares its diagnostics against the want comments.
func runGolden(t *testing.T, az *Analyzer, patterns ...string) {
	t.Helper()
	mod := loadGolden(t, patterns...)
	diags, err := RunAnalyzers(mod, []*Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}

	type lineKey struct {
		file string
		line int
	}
	// Collect expectations from the testdata source comments.
	want := make(map[lineKey][]*regexp.Regexp)
	for _, pkg := range mod.Pkgs {
		if !strings.Contains(pkg.Dir, "testdata") {
			continue
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := mod.Fset.Position(c.Pos())
					k := lineKey{pos.Filename, pos.Line}
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
						}
						want[k] = append(want[k], re)
					}
				}
			}
		}
	}

	// Match diagnostics (testdata files only — the module view may pull in
	// real packages as dependencies) against expectations.
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		if !strings.Contains(pos.Filename, "testdata") {
			continue
		}
		k := lineKey{pos.Filename, pos.Line}
		matched := false
		for i, re := range want[k] {
			if re.MatchString(d.Message) {
				want[k] = append(want[k][:i], want[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic [%s]: %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for k, res := range want {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}

func TestZeroAllocGolden(t *testing.T) {
	runGolden(t, ZeroAlloc, "./internal/analysis/testdata/src/zeroalloc_a")
}

// TestAtomicFieldGolden pins ctxflow's atomics rule: every sync/atomic
// function call is reported, aliased or not, and typed wrappers pass.
func TestAtomicFieldGolden(t *testing.T) {
	runGolden(t, CtxFlow, "./internal/analysis/testdata/src/atomicfield_a")
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, CtxFlow,
		"./internal/analysis/testdata/src/ctxflow_a/internal/serve",
		"./internal/analysis/testdata/src/ctxflow_b")
}

func TestMetricNameGolden(t *testing.T) {
	runGolden(t, MetricName, "./internal/analysis/testdata/src/metricname_a")
}

// TestMalformedIgnoreReported pins the suppression contract: a directive
// without a reason is itself reported and suppresses nothing. (The want
// harness cannot express this case — a trailing comment cannot sit on a
// line that is already a directive comment — so it asserts directly.)
func TestMalformedIgnoreReported(t *testing.T) {
	mod := loadGolden(t, "./internal/analysis/testdata/src/ignore_a")
	diags, err := RunAnalyzers(mod, []*Analyzer{ZeroAlloc})
	if err != nil {
		t.Fatal(err)
	}
	var gotMalformed, gotAlloc bool
	for _, d := range diags {
		switch d.Analyzer {
		case "ignore":
			if strings.Contains(d.Message, "malformed") {
				gotMalformed = true
			}
		case "zeroalloc":
			gotAlloc = true
		}
	}
	if !gotMalformed {
		t.Errorf("malformed //adsala:ignore not reported; diagnostics: %+v", diags)
	}
	if !gotAlloc {
		t.Errorf("reason-less //adsala:ignore suppressed a finding; diagnostics: %+v", diags)
	}
}
