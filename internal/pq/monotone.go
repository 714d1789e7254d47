package pq

import (
	"math/bits"
	"slices"
)

// Monotone is a monotone priority queue (a radix heap) over uint32 items
// with uint64 keys: Push requires key >= the key of the last Pop, which is
// what Dijkstra with positive weights guarantees. An entry lives in bucket
// bits.Len64(key ^ last) — bucket 0 holds keys equal to the last popped key,
// bucket i keys that first differ from it in bit i-1 — so a Pop that finds
// bucket 0 empty takes the first non-empty bucket, makes its minimum the new
// last key, and spreads that bucket's entries over strictly lower buckets.
// Every entry moves down at most 64 times, whatever the key range.
//
// There is no DecreaseKey: a caller that improves an item's key pushes the
// item again and skips the stale entry when it pops. The zero value is an
// empty queue. All entries pushed since the last Reset share one slab,
// chained per bucket, so the slab is the only thing that grows; once it has
// reached the size of the largest search, Push and Pop do not allocate.
type Monotone struct {
	ents []monoEntry
	head [65]uint32 // head[b]: 1 + index in ents of bucket b's first entry; 0 if empty
	last uint64
	n    int
}

type monoEntry struct {
	key  uint64
	item uint32
	next uint32 // 1 + index of the bucket's next entry; 0 at the end
}

// Len returns the number of queued entries, stale ones included.
func (q *Monotone) Len() int { return q.n }

// Grow reserves room for n more entries, so that pushing them will not
// allocate.
func (q *Monotone) Grow(n int) { q.ents = slices.Grow(q.ents, n) }

// Reset empties the queue and forgets the last popped key.
//
//bc:hotpath
func (q *Monotone) Reset() {
	q.ents = q.ents[:0]
	q.head = [65]uint32{}
	q.last = 0
	q.n = 0
}

// Push queues item under key; it panics if key is below the last popped key.
//
//bc:hotpath
func (q *Monotone) Push(item uint32, key uint64) {
	if key < q.last {
		panic("pq: Monotone.Push below the last popped key")
	}
	b := bits.Len64(key ^ q.last)
	q.ents = append(q.ents, monoEntry{key, item, q.head[b]})
	q.head[b] = uint32(len(q.ents))
	q.n++
}

// Pop removes and returns an entry of minimum key; it panics when empty.
// Entries of equal key come out in no particular order.
//
//bc:hotpath
func (q *Monotone) Pop() (item uint32, key uint64) {
	if q.n == 0 {
		panic("pq: empty")
	}
	if q.head[0] == 0 {
		q.refill()
	}
	e := &q.ents[q.head[0]-1]
	q.head[0] = e.next
	q.n--
	return e.item, e.key
}

// refill advances last to the smallest queued key and redistributes the
// bucket that held it. Each entry there agrees with the new last key above
// the bucket's bit, so it lands in a strictly lower bucket.
//
//bc:hotpath
func (q *Monotone) refill() {
	b := 1
	for q.head[b] == 0 {
		b++
	}
	first := q.head[b]
	min := q.ents[first-1].key
	for i := q.ents[first-1].next; i != 0; i = q.ents[i-1].next {
		if k := q.ents[i-1].key; k < min {
			min = k
		}
	}
	q.last = min
	q.head[b] = 0
	for i := first; i != 0; {
		e := &q.ents[i-1]
		next := e.next
		to := bits.Len64(e.key ^ min)
		e.next, q.head[to] = q.head[to], i
		i = next
	}
}
