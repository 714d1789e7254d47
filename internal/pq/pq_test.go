package pq

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHeapSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rng.NewRand(seed)
		h := New(n)
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			p := r.Uint64n(1000)
			h.Push(uint32(i), p)
			want[i] = p
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; i < n; i++ {
			_, p := h.Pop()
			if p != want[i] {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 50)
	h.Push(1, 40)
	h.Push(2, 30)
	h.DecreaseKey(0, 10)
	if item, p := h.Pop(); item != 0 || p != 10 {
		t.Fatalf("got (%d, %d), want (0, 10)", item, p)
	}
	if !h.PushOrDecrease(1, 5) {
		t.Fatal("PushOrDecrease did not decrease")
	}
	if h.PushOrDecrease(1, 100) {
		t.Fatal("PushOrDecrease increased priority")
	}
	if item, p := h.Pop(); item != 1 || p != 5 {
		t.Fatalf("got (%d, %d), want (1, 5)", item, p)
	}
	if h.PushOrDecrease(3, 7) != true {
		t.Fatal("PushOrDecrease did not insert")
	}
	if !h.Contains(3) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
}

func TestPanics(t *testing.T) {
	cases := []func(){
		func() { New(1).Pop() },
		func() { h := New(1); h.Push(0, 1); h.Push(0, 2) },
		func() { New(1).DecreaseKey(0, 1) },
		func() { h := New(1); h.Push(0, 1); h.DecreaseKey(0, 5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestReset(t *testing.T) {
	h := New(5)
	h.Push(1, 10)
	h.Push(3, 5)
	h.Reset()
	if h.Len() != 0 || h.Contains(1) || h.Contains(3) {
		t.Fatal("Reset incomplete")
	}
	h.Push(1, 7) // must not panic after reset
	if item, p := h.Pop(); item != 1 || p != 7 {
		t.Fatalf("post-reset pop got (%d, %d)", item, p)
	}
}

// TestMonotoneMatchesHeapOnDijkstraTraffic drives Monotone with the traffic
// a lazy Dijkstra produces — pops interleaved with pushes at or above the
// last popped key, over key ranges from a few units to beyond 2^32 — and
// checks that it releases the same key sequence as a sorted reference.
func TestMonotoneMatchesHeapOnDijkstraTraffic(t *testing.T) {
	f := func(seed uint64, spanBits uint8) bool {
		r := rng.NewRand(seed)
		span := uint64(1) << (spanBits % 40)
		var q Monotone
		var pending []uint64 // sorted reference
		push := func(key uint64, item uint32) {
			q.Push(item, key)
			i := sort.Search(len(pending), func(i int) bool { return pending[i] >= key })
			pending = append(pending, 0)
			copy(pending[i+1:], pending[i:])
			pending[i] = key
		}
		push(0, 0)
		for step := uint32(1); len(pending) > 0 && step < 400; step++ {
			_, key := q.Pop()
			if key != pending[0] {
				return false
			}
			pending = pending[1:]
			for k := r.Intn(4); k > 0 && step < 300; k-- {
				push(key+r.Uint64n(span), step)
			}
			if q.Len() != len(pending) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneItemsKeysAndReset(t *testing.T) {
	var q Monotone
	q.Push(7, 5)
	q.Push(8, 5)
	q.Push(9, 3)
	if item, key := q.Pop(); item != 9 || key != 3 {
		t.Fatalf("got (%d, %d), want (9, 3)", item, key)
	}
	a, ka := q.Pop()
	b, kb := q.Pop()
	if ka != 5 || kb != 5 || a+b != 15 {
		t.Fatalf("equal keys came out as (%d, %d), (%d, %d)", a, ka, b, kb)
	}
	q.Push(1, 1<<63)
	q.Push(2, ^uint64(0))
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset left entries behind")
	}
	q.Push(3, 0) // legal again: Reset forgets the last popped key
	q.Push(4, ^uint64(0))
	if item, key := q.Pop(); item != 3 || key != 0 {
		t.Fatalf("post-reset pop got (%d, %d)", item, key)
	}
	if item, key := q.Pop(); item != 4 || key != ^uint64(0) {
		t.Fatalf("top-bucket pop got (%d, %d)", item, key)
	}
}

func TestMonotoneGrowReserves(t *testing.T) {
	var q Monotone
	q.Grow(100)
	if avg := testing.AllocsPerRun(20, func() {
		q.Reset()
		for i := uint32(0); i < 100; i++ {
			q.Push(i, uint64(i)*3)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}); avg != 0 {
		t.Fatalf("100 entries after Grow(100) allocate %.1f times a round", avg)
	}
}

func TestMonotonePanics(t *testing.T) {
	cases := []func(){
		func() { new(Monotone).Pop() },
		func() { var q Monotone; q.Push(0, 9); q.Pop(); q.Push(1, 8) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkPushPop(b *testing.B) {
	const n = 4096
	h := New(n)
	r := rng.NewRand(1)
	prios := make([]uint64, n)
	for i := range prios {
		prios[i] = r.Uint64n(1 << 30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			h.Push(uint32(j), prios[j])
		}
		for j := 0; j < n; j++ {
			h.Pop()
		}
	}
}

// BenchmarkMonotonePushPop is BenchmarkPushPop's traffic in the order a
// monotone queue allows: the same 4096 keys, each pushed at an offset above
// the key just popped, as Dijkstra's relaxations are.
func BenchmarkMonotonePushPop(b *testing.B) {
	const n = 4096
	var q Monotone
	r := rng.NewRand(1)
	offs := make([]uint64, n)
	for i := range offs {
		offs[i] = r.Uint64n(100) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Reset()
		q.Push(0, 0)
		next := 1
		for q.Len() > 0 {
			_, key := q.Pop()
			for k := 0; k < 2 && next < n; k++ {
				q.Push(uint32(next), key+offs[next])
				next++
			}
		}
	}
}
