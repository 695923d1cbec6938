package main

import (
	"path/filepath"
	"strings"
	"testing"
)

func root(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

func TestListAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, ","), "zeroalloc,ctxflow,metricname"; got != want {
		t.Errorf("-list names %s, want %s:\n%s", got, want, out.String())
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-only", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("-only bogus exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer error", errb.String())
	}
}

// TestFindingsExitOne drives the command over a testdata package with a
// known violation and checks the file:line:col output format and exit
// status.
func TestFindingsExitOne(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-no-vet", "-C", root(t),
		"./internal/analysis/testdata/src/ctxflow_b"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exited %d, want 1; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "ctxflow: http.NewRequest drops") {
		t.Errorf("diagnostic missing from output:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("summary missing from stderr: %q", errb.String())
	}
}

// TestCleanExitZero runs the full suite over a clean package.
func TestCleanExitZero(t *testing.T) {
	var out, errb strings.Builder
	code := run([]string{"-no-vet", "-C", root(t), "./internal/features"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exited %d, want 0; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}
