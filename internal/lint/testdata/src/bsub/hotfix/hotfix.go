// Package hotfix exercises the hotpathalloc analyzer: //bsub:hotpath
// functions must not allocate and may only call marked or allowlisted
// functions.
package hotfix

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

//bsub:hotpath
func callsFmt(x int) {
	fmt.Println(x) // want `hotpath function calls fmt.Println, which allocates`
}

//bsub:hotpath
func coldErrorExit(ok bool) error {
	if !ok {
		return fmt.Errorf("bad") // error exits are cold
	}
	return nil
}

//bsub:hotpath
func nilErrorExit(n int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("negative %d", n) // a non-nil error is cold
	}
	return make([]byte, n), nil // want `make allocates in a hotpath function`
}

//bsub:hotpath
func valueReturn(s []int) []int {
	return slices.Clone(s) // want `hotpath function calls slices.Clone, which is not on the allowlist`
}

//bsub:hotpath
func sliceEdits(s []int, v int) []int {
	i, _ := slices.BinarySearch(s, v) // a non-allocating slices function
	s = slices.Insert(s, i, v)        // Insert and Delete count as append
	s = slices.Delete(s, 0, 1)
	g := slices.Grow(s, 8)   // want `hotpath function calls slices.Grow, which is not on the allowlist`
	c := slices.Concat(s, g) // want `hotpath function calls slices.Concat, which is not on the allowlist`
	return c
}

//bsub:hotpath
func concat(a, b string) int {
	s := a + b // want `string concatenation allocates in a hotpath function`
	return len(s)
}

//bsub:hotpath
func sums(a, b int) int {
	c := a + b // integer addition is fine
	return c
}

//bsub:hotpath
func conversions(b []byte, s string) int {
	str := string(b) // want `\[\]byte-to-string conversion allocates in a hotpath function`
	bs := []byte(s)  // want `string-to-\[\]byte conversion allocates in a hotpath function`
	return len(str) + len(bs)
}

//bsub:hotpath
func arena(chunks [][]byte, n int) [][]byte {
	chunks = append(chunks, make([]byte, n)) // amortized growth inside append is exempt
	buf := make([]byte, n)                   // want `make allocates in a hotpath function`
	_ = buf
	return chunks
}

//bsub:hotpath
func literals() {
	m := map[int]int{} // want `map literal allocates in a hotpath function`
	_ = m
	s := []int{1, 2} // want `slice literal allocates in a hotpath function`
	_ = s
}

//bsub:hotpath
func closures(y int) {
	f := func(a int) int { return a * 2 } // captures nothing: fine
	_ = f
	g := func() int { return y } // want `closure captures variables and allocates in a hotpath function`
	_ = g
}

//bsub:hotpath
func allowlisted(a, b float64) float64 {
	m := math.Max(a, b) // math is on the allowlist
	return m
}

//bsub:hotpath
func offList(n int) int {
	v := rand.Intn(n) // want `hotpath function calls math/rand.Intn, which is not on the allowlist`
	return v
}

func unmarked() {}

//bsub:coldpath
func growSlow() {}

//bsub:hotpath
func fast() {}

//bsub:hotpath
func calls() {
	fast()     // hotpath callee: fine
	growSlow() // coldpath escape hatch: fine
	unmarked() // want `hotpath function calls unmarked, which is not marked //bsub:hotpath or //bsub:coldpath`
}

// lazyState mirrors the compact-node-state idiom: hot accessors guard a
// nil map and delegate the one-time allocation to a coldpath grow helper.
type lazyState struct {
	seen map[int]int
}

//bsub:coldpath
func (l *lazyState) grow() { l.seen = make(map[int]int) }

//bsub:hotpath
func (l *lazyState) record(k, v int) {
	if l.seen == nil {
		l.grow() // coldpath escape hatch: fine
	}
	l.seen[k] = v
}

//bsub:hotpath
func (l *lazyState) recordInline(k, v int) {
	if l.seen == nil {
		l.seen = make(map[int]int) // want `make allocates in a hotpath function`
	}
	l.seen[k] = v
}

//bsub:hotpath
func suppressed() {
	//lint:ignore bsub/hotpathalloc one-time init, proven cold by BenchmarkContact
	m := map[int]int{}
	_ = m
}

// notHot allocates freely: no directive, no findings.
func notHot() map[int]int {
	return map[int]int{1: 2}
}
