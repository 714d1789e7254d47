// Package pq stands in for a package whose last non-test caller is the
// benchmark module.
package pq

// Heap is used by repro/bench only.
type Heap struct{ items []uint32 }

// New and Push keep Heap alive through the bench/ use.
func New(n int) *Heap { return &Heap{items: make([]uint32, 0, n)} }

func (h *Heap) Push(item uint32) { h.items = append(h.items, item) }

// Reset is reached only by pq_test.go: a test-only export.
func (h *Heap) Reset() { h.items = h.items[:0] } // want `exported Heap.Reset has no reference from a non-test file outside its declaration`

// Limit is used by nothing at all.
const Limit = 1 << 20 // want `exported Limit has no reference`

// Spin refers only to itself, which does not count.
func Spin(n int) int { // want `exported Spin has no reference`
	if n == 0 {
		return 0
	}
	return Spin(n - 1)
}
