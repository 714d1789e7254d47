package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"      // B's median is worse than A's by more than the bound
	verdictUnresolved = "unresolved" // not worse, but a side's median is not known to within the bound
)

// verdict judges B's summary of a metric against the base A.
func verdict(a, b summary, def metricDef) string {
	worsening := b.Median/a.Median - 1
	if def.Better == higher {
		worsening = 1 - b.Median/a.Median
	}
	switch {
	case worsening > def.Bound:
		return verdictWorse
	case max(a.resolution(), b.resolution()) > def.Bound:
		return verdictUnresolved
	}
	return verdictOK
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareMain implements `bench compare A.json B.json`: A is the base. It
// returns the exit code: 1 if any metric is worse or a workload's failed
// share rose, 2 on bad usage.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	a, err := loadReport(args[0])
	if err == nil {
		var b *report
		if b, err = loadReport(args[1]); err == nil {
			if compareReports(os.Stdout, a, b) {
				return 0
			}
			return 1
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// compareReports prints, per workload and end-to-end metric, both medians
// with their quartiles, the ratio B/A with its base, and the verdict. It
// reports whether B is acceptable: nothing worse, no higher failed share.
func compareReports(w io.Writer, a, b *report) bool {
	fmt.Fprintf(w, "A: seed %d commit %s %s, %d CPU(s)\nB: seed %d commit %s %s, %d CPU(s)\n",
		a.Stamp.Seed, a.Stamp.Commit, a.Stamp.CPU, a.Stamp.NProc,
		b.Stamp.Seed, b.Stamp.Commit, b.Stamp.CPU, b.Stamp.NProc)
	byName := make(map[string]*workloadReport)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	accept := true
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s: failed %d/%d -> %d/%d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		if share(wb) > share(wa) {
			fmt.Fprintln(w, "  failed share rose")
			accept = false
		}
		for _, def := range endToEnd {
			sa, sb := wa.EndToEnd[def.Name], wb.EndToEnd[def.Name]
			if sa.N == 0 || sb.N == 0 {
				continue
			}
			v := verdict(sa, sb, def)
			accept = accept && v != verdictWorse
			fmt.Fprintf(w, "  %-18s A %.5g [%.5g, %.5g] n=%d  B %.5g [%.5g, %.5g] n=%d  B/A %.3f (base %.5g %s, %s is better, bound %.0f%%)  %s\n",
				def.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N,
				sb.Median/sa.Median, sa.Median, def.Unit, def.Better, 100*def.Bound, v)
		}
	}
	return accept
}

// share is a workload's failed ops over its attempted ones.
func share(wr *workloadReport) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}
