// Package runs merges sorted runs through container/heap: its heap's
// exported methods are reached only through heap.Interface.
package runs

import "container/heap"

type runHeap []uint64

func (h runHeap) Len() int           { return len(h) }
func (h runHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h runHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *runHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// Merge returns the smallest head.
func Merge(heads []uint64) uint64 {
	h := runHeap(heads)
	heap.Init(&h)
	return heap.Pop(&h).(uint64)
}
