// Command bench stands in for the nested benchmark module, whose uses of
// the internal packages count like any other non-test file's.
package main

import "repro/internal/pq"

func main() {
	h := pq.New(4)
	h.Push(3)
}
