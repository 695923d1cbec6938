// Package zeroalloc_a exercises the zeroalloc analyzer: every allocating
// construct class, the transitive walk, and the suppression directive.
package zeroalloc_a

import "fmt"

//adsala:zeroalloc
func makesSlice(n int) []int {
	return make([]int, n) // want `makesSlice is //adsala:zeroalloc but make allocates`
}

//adsala:zeroalloc
func news() *int {
	return new(int) // want `new allocates`
}

//adsala:zeroalloc
func appends(dst []int) []int {
	return append(dst, 1) // want `append may grow its backing array`
}

//adsala:zeroalloc
func closes(x int) func() int {
	return func() int { return x } // want `function literal may allocate a closure`
}

//adsala:zeroalloc
func spawns(f func()) {
	go f() // want `go statement allocates a goroutine`
}

//adsala:zeroalloc
func sliceLit() []int {
	return []int{1, 2, 3} // want `slice literal allocates`
}

//adsala:zeroalloc
func mapLit() map[string]int {
	return map[string]int{"a": 1} // want `map literal allocates`
}

type point struct{ x, y int }

//adsala:zeroalloc
func escapes() *point {
	return &point{1, 2} // want `&T{...} composite literal escapes to the heap`
}

//adsala:zeroalloc
func prints(x int) {
	fmt.Println(x) // want `call to fmt.Println allocates`
}

//adsala:zeroalloc
func converts(s string) []byte {
	return []byte(s) // want `string/\[\]byte conversion copies and allocates`
}

//adsala:zeroalloc
func boxes(x int) any {
	return any(x) // want `conversion of int to interface boxes and allocates`
}

func sink(v any) { _ = v }

//adsala:zeroalloc
func boxesArg(x int) {
	sink(x) // want `passing int as interface .* boxes and allocates`
}

func allocHelper(n int) []int {
	return make([]int, n)
}

//adsala:zeroalloc
func callsHelper(n int) []int {
	return allocHelper(n) // want `call to zeroalloc_a.allocHelper allocates: make allocates`
}

// cleanHelper allocates nothing; calling it transitively is fine.
func cleanHelper(a, b int) int { return a*b + a }

//adsala:zeroalloc
func clean(a, b int) int {
	s := 0
	for i := a; i < b; i++ {
		s += cleanHelper(i, a)
	}
	return s
}

// pooledHelper carries a justified suppression: annotated callers trust it.
func pooledHelper(n int) []int {
	//adsala:ignore zeroalloc test fixture: the allocation is justified here
	return make([]int, n)
}

//adsala:zeroalloc
func callsPooled(n int) []int {
	return pooledHelper(n)
}

// boxesPointer passes a pointer-shaped value to an interface parameter:
// no allocation, no finding.
//
//adsala:zeroalloc
func boxesPointer(p *point) {
	sink(p)
}

// boxesConst passes a small constant: the runtime's static boxes make it
// allocation-free.
//
//adsala:zeroalloc
func boxesConst() {
	sink(7)
}

// asmLeaf has no Go body (leaf.s stands in for its assembly): a trusted
// leaf. Calling it from an annotated function is fine.
//
//go:noescape
func asmLeaf(acc *[4]float32, x *float32, n int)

//adsala:zeroalloc
func callsAsmLeaf(x []float32) float32 {
	var acc [4]float32
	asmLeaf(&acc, &x[0], len(x))
	return acc[0]
}

// The wrapper around the leaf is still checked.
//
//adsala:zeroalloc
func boxesBeforeAsmLeaf(x []float32) {
	var acc [4]float32
	sink(x) // want `passing \[\]float32 as interface .* boxes and allocates`
	asmLeaf(&acc, &x[0], len(x))
}
