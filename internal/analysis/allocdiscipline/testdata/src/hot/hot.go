// Package hot is the allocdiscipline fixture: every allocation pattern
// the analyzer guards //tempo:hot functions against.
package hot

import (
	"fmt"
	"slices"
	"sort"
)

//tempo:hot
func popFront(q []int) int {
	n := 0
	for len(q) > 0 {
		n += q[0]
		q = q[1:] // want `pop-front reslice`
	}
	return n
}

//tempo:hot
func resliceFromZeroOK(q []int) []int {
	q = q[0:]
	return q
}

//tempo:hot
func headIndexOK(q []int) int {
	n := 0
	for head := 0; head < len(q); head++ {
		n += q[head]
	}
	return n
}

//tempo:hot
func format(n int) string {
	return fmt.Sprintf("%d", n) // want `fmt.Sprintf in hot path`
}

//tempo:hot
func wrap(err error) error {
	return fmt.Errorf("hot: %w", err) // want `fmt.Errorf in hot path`
}

//tempo:hot
func pointerNoBoxOK(sink func(any), x *int) {
	sink(x)
}

//tempo:hot
func boxedInt(sink func(any), x int) {
	sink(x) // want `value of type int boxed into any`
}

type pair struct{ a, b int }

//tempo:hot
func boxedStruct(sink func(any), p pair) {
	sink(p) // want `value of type hot.pair boxed into any`
}

//tempo:hot
func mapNoBoxOK(sink func(any), m map[int]int) {
	sink(m)
}

//tempo:hot
func suppressed(n int) string {
	//tempolint:ignore allocdiscipline one-shot setup formatting, outside the per-event loop
	return fmt.Sprintf("%d", n)
}

//tempo:hot
func sortSlice(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) // want `sort.Slice in hot path`
}

//tempo:hot
func sortSliceStable(xs []int) {
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] > xs[j] }) // want `sort.SliceStable in hot path`
}

//tempo:hot
func sortFuncOK(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return a - b })
}

//tempo:hot
func sortSuppressed(xs []int) {
	//tempolint:ignore allocdiscipline runs once per run on a handful of tenants, not per event
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// coldFormat has no annotation: nothing in it is flagged.
func coldFormat(q []int, n int) string {
	q = q[1:]
	_ = q
	sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	return fmt.Sprintf("%d", n)
}
