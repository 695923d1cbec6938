package ops

import (
	"math/rand"
	"testing"

	"repro/internal/sampling"
)

func TestParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Op
	}{{"", GEMM}, {"gemm", GEMM}, {"syrk", SYRK}, {"syr2k", SYR2K}} {
		got, err := Parse(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("Parse(%q) = (%v, %v), want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := Parse("trsm"); err == nil {
		t.Error("unknown op should parse with error")
	}
	if GEMM.String() != "gemm" || SYRK.String() != "syrk" || SYR2K.String() != "syr2k" {
		t.Errorf("wire names: %q %q %q", GEMM, SYRK, SYR2K)
	}
	if !GEMM.Valid() || !SYR2K.Valid() || Op(numOps).Valid() {
		t.Error("Valid() wrong")
	}
	if len(names()) != NumOps() || len(Specs()) != NumOps() || len(All()) != NumOps() {
		t.Error("registry enumeration sizes disagree")
	}
}

func TestParseList(t *testing.T) {
	got, err := ParseList("gemm, syrk,gemm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != GEMM || got[1] != SYRK {
		t.Errorf("ParseList = %v, want [gemm syrk] deduplicated", got)
	}
	if _, err := ParseList("gemm,nope"); err == nil {
		t.Error("bad list should error")
	}
	if got, err := ParseList("  "); err != nil || got != nil {
		t.Errorf("empty list = (%v, %v)", got, err)
	}
}

func TestSpecTable(t *testing.T) {
	// Every entry is self-consistent: Op matches its index, and every
	// function member is populated.
	for i, spec := range Specs() {
		if spec.Op != Op(i) {
			t.Errorf("spec %d has Op %v", i, spec.Op)
		}
		if spec.Name == "" || spec.Canon == nil || spec.Flops == nil || spec.NewBench == nil {
			t.Errorf("spec %q incomplete: %+v", spec.Name, spec)
		}
	}
	// Canonical triples: GEMM identity, symmetric updates fold to (m, k, m).
	sh := sampling.Shape{M: 100, K: 30, N: 7}
	if got := GEMM.Spec().Canon(sh); got != sh {
		t.Errorf("gemm canon %v", got)
	}
	want := sampling.Shape{M: 100, K: 30, N: 100}
	if got := SYRK.Spec().Canon(sh); got != want {
		t.Errorf("syrk canon %v, want %v", got, want)
	}
	if got := SYR2K.Spec().Canon(sh); got != want {
		t.Errorf("syr2k canon %v, want %v", got, want)
	}
	// FLOP weights: syrk ≈ half a square GEMM, syr2k twice syrk.
	g := GEMM.Spec().Flops(64, 32, 64)
	s := SYRK.Spec().Flops(64, 32, 64)
	s2 := SYR2K.Spec().Flops(64, 32, 64)
	if s >= g || s2 != 2*s {
		t.Errorf("flop weights gemm=%v syrk=%v syr2k=%v", g, s, s2)
	}
}

func TestBenchExecutors(t *testing.T) {
	// Every registered op's executor binding runs the real kernel without
	// error at a small canonical triple.
	rng := rand.New(rand.NewSource(1))
	for _, spec := range Specs() {
		sh := spec.Canon(sampling.Shape{M: 18, K: 11, N: 13})
		run := spec.NewBench(sh.M, sh.K, sh.N, rng)
		for _, threads := range []int{1, 2} {
			if err := run(threads); err != nil {
				t.Errorf("%s bench at %v threads=%d: %v", spec.Name, sh, threads, err)
			}
		}
	}
}
