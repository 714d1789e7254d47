package main

import (
	"repro/internal/mpi"
	"repro/internal/runs"
)

func main() {
	if _, err := mpi.Connect(2); err != nil {
		panic(err)
	}
	println(runs.Merge([]uint64{3, 1, 2}))
}
