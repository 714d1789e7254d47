package memprof

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestReadAndReport(t *testing.T) {
	s := Read()
	if s.HeapSys == 0 || s.TotalAlloc == 0 {
		t.Fatalf("runtime stats missing: %+v", s)
	}
	var buf bytes.Buffer
	s.Report(&buf)
	out := buf.String()
	for _, want := range []string{"mem heap-alloc:", "mem heap-sys:", "mem total-alloc:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestParseKiBLine(t *testing.T) {
	if got := parseKiBLine("VmHWM:     1024 kB"); got != 1<<20 {
		t.Errorf("parseKiBLine = %d, want %d", got, 1<<20)
	}
	if got := parseKiBLine("garbage"); got != 0 {
		t.Errorf("parseKiBLine(garbage) = %d, want 0", got)
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		err  string // substring of the error; "" for success
	}{
		{"262144", 262144, ""},
		{"256KiB", 256 << 10, ""},
		{" 128MiB ", 128 << 20, ""},
		{"1.5GiB", 3 << 29, ""},
		{"256M", 256 << 20, ""},
		{"4KB", 4 << 10, ""},
		{"7B", 7, ""},
		{"9000000GiB", 9000000 << 30, ""},
		{"MiB", 0, "bad size"},
		{"ten", 0, "bad size"},
		{"", 0, "bad size"},
		{"0", 0, "must be positive"},
		{"0.5", 0, "must be positive"},
		{"-1MiB", 0, "must be positive"},
		{"NaN", 0, "must be positive"},
		{"1e-400", 0, "must be positive"},
		{"1e30", 0, "too large"},
		{"8589934592GiB", 0, "too large"}, // 2^63 bytes
		{"1e400", 0, "too large"},
		{"Inf", 0, "too large"},
	} {
		got, err := ParseSize(tc.in)
		switch {
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("ParseSize(%q) = %d, %v; want an error containing %q", tc.in, got, err, tc.err)
		}
	}
}

func TestPhysicalMemory(t *testing.T) {
	if _, err := os.Stat("/proc/meminfo"); err != nil {
		t.Skip("no /proc/meminfo")
	}
	if PhysicalMemory() == 0 {
		t.Error("PhysicalMemory() = 0 with /proc/meminfo present")
	}
}
