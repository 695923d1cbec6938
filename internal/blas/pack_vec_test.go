package blas

// Unit tests for the data-movement half of the kernels: the packers, the
// mirror and the assembly transposes under them. Like kernel_vec_test.go they
// fence what a routine may touch — NaN sentinels around every source, canaries
// around every destination — and compare whole buffers, fences included, bit
// for bit against the definition of the layout, with the vector kernels on
// and (where the machine has them) forced off: an over-read that reaches a
// result, a store outside the destination or a read from the wrong triangle
// shows up here rather than as a wrong digit in a SYRK.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// same reports bit equality as far as the element type shows it: equal
// values, or NaN on both sides.
func same[T float32 | float64](a, b T) bool { return a == b || (a != a && b != b) }

// fenced returns an r×c matrix with the given stride whose backing array has
// pad more elements on either side, and the whole backing array. Every
// element outside the matrix proper — the pads and the stride gaps — is fill;
// inside it is random.
func fenced[T float32 | float64](r, c, stride, pad int, fill T, rng *rand.Rand) (mat.Dense[T], []T) {
	n := 0
	if r > 0 {
		n = (r-1)*stride + c
	}
	all := make([]T, pad+n+pad)
	for i := range all {
		all[i] = fill
	}
	m := mat.Dense[T]{Rows: r, Cols: c, Stride: stride, Data: all[pad : pad+n : pad+n]}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Data[i*stride+j] = T(rng.NormFloat64())
		}
	}
	return m, all
}

// vecModes runs f with the vector kernels as probed and, where the probe said
// yes, again with them forced off: the scalar loops are the reference on
// every machine, and both must meet the same expectation.
func vecModes(t *testing.T, f func(t *testing.T)) {
	t.Run(fmt.Sprintf("useVec=%t", useVec), f)
	if useVec {
		t.Run("useVec=forced-off", func(t *testing.T) {
			forceGoTile(t)
			f(t)
		})
	}
}

// packKCs covers every residue of kc against both transpose blocks, and the
// default KC with its neighbours.
var packKCs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 255, 256, 257}

func testTransposeVec[T float32 | float64](t *testing.T) {
	if !useVec {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(70))
	nan := T(math.NaN())
	blk := vecBlock[T]()
	for _, m := range []int{blk, 2 * blk, 3 * blk, 16, 48} {
		for _, n := range []int{blk, 2 * blk, 5 * blk, 256} {
			for _, extra := range []int{0, 1, 13} {
				src, _ := fenced[T](m, n, n+extra, 64, nan, rng)
				dst, all := fenced[T](n, m, m+extra, 64, canary, rng)
				want := append([]T(nil), all...)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want[64+j*dst.Stride+i] = src.Data[i*src.Stride+j]
					}
				}
				transposeVec(dst.Data, dst.Stride, src.Data, src.Stride, m, n)
				for i := range all {
					if !same(all[i], want[i]) {
						t.Fatalf("m=%d n=%d extra=%d: dst[%d] = %v, want %v", m, n, extra, i-64, all[i], want[i])
					}
				}
			}
		}
	}
	// A block that does not fit its slices must panic in Go, before the
	// assembly.
	for _, short := range []struct{ dst, src int }{{blk*blk - 1, blk * blk}, {blk * blk, blk*blk - 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("transposeVec with len(dst)=%d len(src)=%d did not panic", short.dst, short.src)
				}
			}()
			transposeVec(make([]T, short.dst), blk, make([]T, short.src), blk, blk, blk)
		}()
	}
}

func TestTransposeVecF32(t *testing.T) { testTransposeVec[float32](t) }
func TestTransposeVecF64(t *testing.T) { testTransposeVec[float64](t) }

// testPackA packs op(A)(ic:ic+mc, pc:pc+kc) for every residue of mc against
// the tile height and checks the whole panel buffer against the layout's
// definition: panel[p·mr+i] = op(A)(ic+i, pc+p), zero in the padded rows.
func testPackA[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	nan := T(math.NaN())
	const ic, pc = 5, 3 // the block starts inside the matrix
	for _, mr := range []int{goMR, vecMR} {
		for _, trans := range []bool{false, true} {
			for mc := 1; mc <= 2*mr+1; mc++ {
				for _, kc := range packKCs {
					for _, extra := range []int{0, 1, 13} {
						rows, cols := ic+mc+2, pc+kc+2
						if trans {
							rows, cols = cols, rows
						}
						a, _ := fenced[T](rows, cols, cols+extra, 64, nan, rng)
						bufLen := (mc + mr - 1) / mr * mr * kc
						all := make([]T, 32+bufLen+32)
						want := make([]T, len(all))
						for i := range all {
							all[i], want[i] = canary, canary
						}
						for i := 0; i < bufLen/kc; i++ {
							for p := 0; p < kc; p++ {
								var v T
								if i < mc {
									v = opAt(a, trans, ic+i, pc+p)
								}
								want[32+(i/mr)*kc*mr+p*mr+i%mr] = v
							}
						}
						packA(a, trans, ic, pc, mc, kc, all[32:32+bufLen:32+bufLen], mr)
						for i := range all {
							if !same(all[i], want[i]) {
								t.Fatalf("mr=%d trans=%t mc=%d kc=%d extra=%d: buf[%d] = %v, want %v",
									mr, trans, mc, kc, extra, i-32, all[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestPackA(t *testing.T) {
	vecModes(t, func(t *testing.T) {
		t.Run("float32", testPackA[float32])
		t.Run("float64", testPackA[float64])
	})
}

// testPackB packs op(B)(pc:pc+kc, jc:jc+nc) for every residue of nc against
// each tile width — the Go tile's, the YMM and the ZMM tile's, each on the
// vector arm where this machine runs that tile and on the scalar loop where
// it does not — whole and as the disjoint panel ranges of one to three parts,
// and checks the whole buffer: panel[p·nr+j] = op(B)(pc+p, jc+j), zero in the
// padded columns.
func testPackB[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	nan := T(math.NaN())
	const pc, jc = 3, 5
	for _, nr := range []int{goNR, ymmNR[T](), zmmNR[T]()} {
		for _, trans := range []bool{false, true} {
			for nc := 1; nc <= 2*nr+1; nc++ {
				for _, kc := range packKCs {
					for _, extra := range []int{0, 1, 13} {
						rows, cols := pc+kc+2, jc+nc+2
						if trans {
							rows, cols = cols, rows
						}
						b, _ := fenced[T](rows, cols, cols+extra, 64, nan, rng)
						nPanels := (nc + nr - 1) / nr
						bufLen := nPanels * nr * kc
						all := make([]T, 32+bufLen+32)
						want := make([]T, len(all))
						for i := range all {
							all[i], want[i] = canary, canary
						}
						for j := 0; j < nPanels*nr; j++ {
							for p := 0; p < kc; p++ {
								var v T
								if j < nc {
									v = opAt(b, trans, pc+p, jc+j)
								}
								want[32+(j/nr)*kc*nr+p*nr+j%nr] = v
							}
						}
						parts := 1 + (nc+kc+extra)%3
						for w := 0; w < parts; w++ {
							packBRange(b, trans, pc, jc, kc, nc, nPanels*w/parts, nPanels*(w+1)/parts, all[32:32+bufLen:32+bufLen], nr)
						}
						for i := range all {
							if !same(all[i], want[i]) {
								t.Fatalf("nr=%d trans=%t nc=%d kc=%d extra=%d: buf[%d] = %v, want %v",
									nr, trans, nc, kc, extra, i-32, all[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestPackB(t *testing.T) {
	vecModes(t, func(t *testing.T) {
		t.Run("float32", testPackB[float32])
		t.Run("float64", testPackB[float64])
	})
}

// checkMirrorBand mirrors rows [lo, hi) of a fenced n×n matrix whose upper
// triangle holds NaN: afterwards the band's upper elements equal their
// lower-triangle twins — a read from above the diagonal, inside the band or
// out of it, would have brought a NaN — and nothing else in the backing array
// has changed.
func checkMirrorBand[T float32 | float64](t *testing.T, n, extra, lo, hi int, rng *rand.Rand) {
	t.Helper()
	nan := T(math.NaN())
	c, all := fenced[T](n, n, n+extra, 64, nan, rng)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.Data[i*c.Stride+j] = nan
		}
	}
	want := append([]T(nil), all...)
	for i := lo; i < hi; i++ {
		for j := i + 1; j < n; j++ {
			want[64+i*c.Stride+j] = c.Data[j*c.Stride+i]
		}
	}
	mirrorLower(c, lo, hi)
	for i := range all {
		if !same(all[i], want[i]) {
			t.Fatalf("n=%d extra=%d band [%d,%d): element %d (row %d col %d) = %v, want %v",
				n, extra, lo, hi, i-64, (i-64)/c.Stride, (i-64)%c.Stride, all[i], want[i])
		}
	}
}

func testMirrorLower[T float32 | float64](t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	sizes := []int{63, 64, 65, 100, 129, 257}
	for n := 1; n <= 2*mirrorTile+vecBlock[T]()+1; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for _, extra := range []int{0, 1, 13} {
			// The bands the team runs: every part of one to five.
			for parts := 1; parts <= 5; parts++ {
				for w := 0; w < parts; w++ {
					lo, hi := mirrorRange(n, w, parts)
					checkMirrorBand[T](t, n, extra, lo, hi, rng)
				}
			}
			// And bands aligned to nothing.
			for i := 0; i < 4; i++ {
				lo := rng.Intn(n)
				checkMirrorBand[T](t, n, extra, lo, lo+rng.Intn(n-lo+1), rng)
			}
		}
	}
}

func TestMirrorLower(t *testing.T) {
	vecModes(t, func(t *testing.T) {
		t.Run("float32", testMirrorLower[float32])
		t.Run("float64", testMirrorLower[float64])
	})
}

// BenchmarkPack reports the cost of packing one cache block per element
// moved, for both operands and both orientations: a 120×256 block of A into
// MR-row panels, a 256×512 block of B into NR-column panels. The untransposed
// A and the transposed B are the two that turn rows into columns.
func BenchmarkPack(b *testing.B) {
	b.Run("float32", benchPack[float32])
	b.Run("float64", benchPack[float64])
}

func benchPack[T float32 | float64](b *testing.B) {
	const mc, kc, nc = 120, 256, 512
	prm := defaultParams[T]()
	rng := rand.New(rand.NewSource(75))
	src, _ := fenced[T](512, 512, 512, 0, 0, rng)
	buf := make([]T, kc*nc)
	perElem := func(b *testing.B, elems int) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
	}
	for _, trans := range []bool{false, true} {
		b.Run(fmt.Sprintf("A/trans=%t", trans), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packA(src, trans, 0, 0, mc, kc, buf, prm.MR)
			}
			perElem(b, mc*kc)
		})
	}
	for _, trans := range []bool{false, true} {
		b.Run(fmt.Sprintf("B/trans=%t", trans), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packBRange(src, trans, 0, 0, kc, nc, 0, nc/prm.NR, buf, prm.NR)
			}
			perElem(b, kc*nc)
		})
	}
}

// BenchmarkMirror reports the single-part mirror of an n×n float32 C per
// element written (n·(n−1)/2 of them): n = 16 and 29 are one and two tile
// rows, mostly diagonal tiles.
func BenchmarkMirror(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	for _, n := range []int{16, 29, 128, 256, 500} {
		c := randF32(n, n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mirrorLower(*c, 0, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n*(n-1)/2), "ns/elem")
		})
	}
}
