// Package memprof reports process memory usage for the ingest-tier
// acceptance checks: the Go heap's view (runtime.MemStats) alongside the
// kernel's (VmHWM/VmRSS from /proc/self/status, where available).
//
// The pair is what distinguishes a mapped graph from a heap copy. An
// mmap-served CSR keeps HeapSys small and flat regardless of graph size —
// the adjacency lives in the page cache, visible (partially, only the
// pages actually touched) in VmRSS but never in the heap — while a loader
// that copies the graph shows up in both. The ingest smoke test bounds
// HeapSys to catch regressions that silently rematerialize the graph.
//
// The package also holds the ingest tools' side of a memory budget:
// ParseSize reads a -mem flag, and PhysicalMemory is what a budget must
// fit in.
package memprof

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Stats is a point-in-time memory snapshot.
type Stats struct {
	HeapAlloc  uint64 // bytes of live heap objects
	HeapSys    uint64 // bytes of heap obtained from the OS (the bound that matters)
	TotalAlloc uint64 // cumulative bytes allocated (churn, not residency)
	VmHWM      uint64 // peak resident set, bytes (0 if /proc is unavailable)
	VmRSS      uint64 // current resident set, bytes (0 if /proc is unavailable)
}

// Read captures the current memory stats. It does not force a GC: the
// HeapSys bound is about pages requested from the OS, which a GC does not
// return promptly anyway.
func Read() Stats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Stats{HeapAlloc: ms.HeapAlloc, HeapSys: ms.HeapSys, TotalAlloc: ms.TotalAlloc}
	v := procKiB("/proc/self/status", "VmHWM", "VmRSS")
	s.VmHWM, s.VmRSS = v[0], v[1]
	return s
}

// PhysicalMemory returns the machine's memory in bytes (MemTotal of
// /proc/meminfo), or 0 where that is unknown.
func PhysicalMemory() uint64 { return procKiB("/proc/meminfo", "MemTotal")[0] }

// Report writes the snapshot in the "key: value" shape the ingest smoke
// script greps, one stat per line, sizes in MiB.
func (s Stats) Report(w io.Writer) {
	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	fmt.Fprintf(w, "mem heap-alloc: %.1f MiB\n", mib(s.HeapAlloc))
	fmt.Fprintf(w, "mem heap-sys: %.1f MiB\n", mib(s.HeapSys))
	fmt.Fprintf(w, "mem total-alloc: %.1f MiB\n", mib(s.TotalAlloc))
	if s.VmHWM > 0 {
		fmt.Fprintf(w, "mem rss-peak: %.1f MiB\n", mib(s.VmHWM))
	}
	if s.VmRSS > 0 {
		fmt.Fprintf(w, "mem rss: %.1f MiB\n", mib(s.VmRSS))
	}
}

// procKiB reads the "Key:   12345 kB" lines named by keys out of a /proc
// file, in bytes. A key the file lacks, or a file that does not exist or
// parse, reads 0: callers treat 0 as "unknown".
func procKiB(path string, keys ...string) []uint64 {
	vals := make([]uint64, len(keys))
	f, err := os.Open(path)
	if err != nil {
		return vals
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		for i, k := range keys {
			if strings.HasPrefix(line, k+":") {
				vals[i] = parseKiBLine(line)
			}
		}
	}
	return vals
}

// parseKiBLine parses a "VmXXX:   12345 kB" status line into bytes.
func parseKiBLine(line string) uint64 {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0
	}
	v, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return v << 10
}

// sizeSuffixes maps size suffixes to multipliers, longest-first so "MiB"
// wins over "B".
var sizeSuffixes = []struct {
	suffix string
	mult   float64
}{
	{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
	{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
	{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
}

// ParseSize parses a byte size with an optional binary suffix: "262144",
// "256KiB", "256MiB", "1.5GiB", also "256M"-style shorthand. The size
// must be positive and below 2^63 bytes.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := 1.0
	for _, c := range sizeSuffixes {
		if strings.HasSuffix(t, c.suffix) && len(t) > len(c.suffix) {
			t = strings.TrimSuffix(t, c.suffix)
			mult = c.mult
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) { // out of range reads ±Inf or 0
		return 0, fmt.Errorf("bad size %q", s)
	}
	switch n := v * mult; {
	case n >= 1<<63:
		return 0, fmt.Errorf("size %q is too large", s)
	case !(n >= 1): // NaN too
		return 0, fmt.Errorf("size %q must be positive", s)
	default:
		return int64(n), nil
	}
}
