package pq

import "testing"

func TestReset(t *testing.T) {
	h := New(2)
	h.Push(1)
	h.Reset()
	_ = Limit
}
