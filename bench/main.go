// Command bench is the repository's benchmark: five named workloads, each a
// closed loop of complete estimates by one client, measured end to end with
// tracing off and layer by layer in a separate traced pass. See README.md.
//
//	bench [-workload a,b] [-seed n] [-seconds s] [-trace 0|1] [-out file]
//	bench compare A.json B.json
//
// Without -trace both passes run and the result file holds every metric.
// The driver's contract is one workload with -trace 0 (end-to-end metrics)
// or -trace 1 (per-layer metrics); in every mode the last line of standard
// output is one JSON object per workload run with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// procs is the benchmark's GOMAXPROCS and the most threads, ranks or
// connections any workload uses.
const procs = 2

// stamp identifies a result file: what ran, where, and for how long.
type stamp struct {
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      string  `json:"trace"`
	Commit     string  `json:"commit"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Started    string  `json:"started"`
	WallS      float64 `json:"wall_s"`
}

// report is the result file.
type report struct {
	Stamp     stamp             `json:"stamp"`
	Workloads []*workloadReport `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	names := flag.String("workload", "", "comma-separated workloads to run (default: all)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs and of every op's sampling")
	seconds := flag.Float64("seconds", 10, "how long the timed ops of each workload measure")
	trace := flag.String("trace", "", "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
	out := flag.String("out", "", "result file (default bench/out/result-seed<seed>.json)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "" && *trace != "0" && *trace != "1") || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w := findWorkload(name)
			if w == nil {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				os.Exit(2)
			}
			selected = append(selected, w)
		}
	}

	runtime.GOMAXPROCS(procs)
	if runtime.NumCPU() < procs {
		fmt.Fprintf(os.Stderr, "bench: warning: %d CPU(s), the workloads use %d threads; timings will not compare with a %d-CPU run\n",
			runtime.NumCPU(), procs, procs)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds,
		endToEnd: *trace != "1", layers: *trace != "0",
		outDir: filepath.Join("bench", "out"),
		size:   fullSize, reps: 10,
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out == "" {
		*out = filepath.Join(cfg.outDir, fmt.Sprintf("result-seed%d.json", *seed))
	}

	started := time.Now()
	rep := report{Stamp: stamp{
		Seed: *seed, Seconds: *seconds, Trace: *trace, Commit: gitCommit(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Started: started.UTC().Format(time.RFC3339),
	}}
	for _, w := range selected {
		wr := runWorkload(context.Background(), w, cfg)
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(os.Stdout, wr)
	}
	rep.Stamp.WallS = time.Since(started).Seconds()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("result file: %s (%.1f s)\n", *out, rep.Stamp.WallS)
	for _, wr := range rep.Workloads {
		fmt.Println(contractLine(wr, cfg))
	}
}

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(f *os.File, wr *workloadReport) {
	w := bufio.NewWriter(f)
	defer w.Flush()
	fmt.Fprintf(w, "\n== %s: %d timed ops, %d attempted, %d failed, %.1f s\n", wr.Name, wr.Ops, wr.Attempted, wr.Failed, wr.WallS)
	for _, failure := range wr.Failures {
		fmt.Fprintf(w, "   FAILED %s\n", failure)
	}
	for _, def := range endToEnd {
		s, ok := wr.EndToEnd[def.Name]
		if !ok || s.N == 0 {
			continue
		}
		fmt.Fprintf(w, "%-34s %14.6g %-6s n=%d q1=%.6g q3=%.6g", def.Name, s.Median, s.Unit, s.N, s.Q1, s.Q3)
		if s.TailP > 0 {
			fmt.Fprintf(w, " p%.3g=%.6g", s.TailP, s.Tail)
		}
		fmt.Fprintln(w)
	}
	for _, def := range perLayer {
		if v, ok := wr.PerLayer[def.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.6g %s\n", def.Name, v, def.Unit)
		}
	}
}

// contractLine renders a workload's result as the driver reads it: every
// end-to-end metric after an end-to-end run, every per-layer metric after a
// layers run (0 where the layer did no work on this workload), both after a
// full run.
func contractLine(wr *workloadReport, cfg runConfig) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if cfg.endToEnd {
		for _, def := range endToEnd {
			metrics[def.Name] = value{wr.EndToEnd[def.Name].Median, def.Unit}
		}
	}
	if cfg.layers {
		for _, def := range perLayer {
			metrics[def.Name] = value{wr.PerLayer[def.Name], def.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   wr.Failed == 0 && wr.Attempted > 0 && len(wr.Failures) == 0,
		"attempted": max(wr.Attempted, 1),
		"failed":    wr.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// gitCommit names the commit of the working tree, or "unknown" outside a
// git checkout (the driver's checkouts are plain directories).
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name where the OS exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
