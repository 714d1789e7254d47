// Package pq provides two priority queues keyed by uint64 priorities over
// uint32 items. Monotone is a radix heap for callers whose keys never fall
// below the last one popped: the weighted sampling kernel uses one per
// search direction, and the exact Brandes reference one per worker. Heap is
// a binary min-heap over items that are each queued at most once. No search
// uses it any more; its last caller is the benchmark's pq.pushpop_ns probe,
// and it goes once that probe times Monotone instead.
package pq

// Heap is an indexed min-heap. Items are vertex IDs in [0, n); each item
// may be present at most once. The zero value is not usable; call New.
type Heap struct {
	items []uint32 // heap-ordered item IDs
	prio  []uint64 // prio[item] = current priority
	pos   []int32  // pos[item] = index in items, -1 if absent
}

// New returns a heap over items [0, n).
func New(n int) *Heap {
	h := &Heap{
		prio: make([]uint64, n),
		pos:  make([]int32, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// Push inserts item with the given priority; it panics if already present.
func (h *Heap) Push(item uint32, priority uint64) {
	if h.pos[item] >= 0 {
		panic("pq: item already present")
	}
	h.prio[item] = priority
	h.pos[item] = int32(len(h.items))
	h.items = append(h.items, item)
	h.up(len(h.items) - 1)
}

// Pop removes and returns the minimum-priority item; it panics when empty.
func (h *Heap) Pop() (item uint32, priority uint64) {
	if len(h.items) == 0 {
		panic("pq: empty")
	}
	top := h.items[0]
	p := h.prio[top]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top] = -1
	if last > 0 {
		h.down(0)
	}
	return top, p
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i]] = int32(i)
	h.pos[h.items[j]] = int32(j)
}

func (h *Heap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] < h.prio[b]
	}
	return a < b // deterministic tie-break
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h.swap(i, j)
		i = j
	}
}
