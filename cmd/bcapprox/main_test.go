package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/betweenness"
	"repro/graph"
)

// TestCheckpointRoundTrip saves a budget-stopped session over an older
// file with writeCheckpoint, restores it with restoreSession, and requires
// the same tau and estimates back with no temp file left in the directory.
func TestCheckpointRoundTrip(t *testing.T) {
	g, err := ParseGenSpec("rmat:scale=8,ef=8")
	if err != nil {
		t.Fatal(err)
	}
	g, _, err = graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	w := betweenness.Undirected(g)
	est, err := betweenness.NewEstimator(w, betweenness.WithEpsilon(0.01), betweenness.WithSeed(3),
		betweenness.WithExecutor(betweenness.Sequential()), betweenness.WithMaxSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	res, err := est.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("run converged inside the sample budget; lower eps")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "s.bck")
	if err := os.WriteFile(path, []byte("an older checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(est, path); err != nil {
		t.Fatal(err)
	}
	restored, err := restoreSession(path, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, got := est.Snapshot(), restored.Snapshot()
	if got.Tau != want.Tau || got.Tau == 0 {
		t.Fatalf("restored tau %d, saved %d", got.Tau, want.Tau)
	}
	if len(want.Estimates) != g.NumNodes() || !slices.Equal(got.Estimates, want.Estimates) {
		t.Fatal("restored estimates differ from the saved session's")
	}
	assertOnlyEntries(t, dir, "s.bck")
}

// TestWriteBlobFailureLeavesNoTmp makes the rename fail (the target is a
// non-empty directory) and requires the temp file to be gone.
func TestWriteBlobFailureLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeBlob(path, []byte("payload")); err == nil {
		t.Fatal("writeBlob replaced a non-empty directory")
	}
	assertOnlyEntries(t, dir, "occupied")
}

func assertOnlyEntries(t *testing.T, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, want) {
		t.Fatalf("%s holds %v, want %v", dir, names, want)
	}
}

// TestCheckpointIntervalOnShm runs the command on the shared-memory
// backend with -checkpoint-interval 1ns -checkpoint PATH: it must report
// in-run captures and leave a file restoreSession accepts. The test binary
// re-runs itself as the command (mainArgsEnv), so main's flag handling is
// what runs.
func TestCheckpointIntervalOnShm(t *testing.T) {
	const mainArgsEnv = "BCAPPROX_TEST_MAIN_ARGS"
	if args := os.Getenv(mainArgsEnv); args != "" {
		os.Args = append([]string{"bcapprox"}, strings.Split(args, "\n")...)
		main()
		return
	}
	const spec = "rmat:scale=8,ef=8"
	path := filepath.Join(t.TempDir(), "s.bck")
	args := []string{"-gen", spec, "-eps", "0.005", "-seed", "3", "-backend", "shm", "-threads", "2",
		"-checkpoint-interval", "1ns", "-checkpoint", path}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("bcapprox %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	m := regexp.MustCompile(`in-run checkpoints written: (\d+)`).FindSubmatch(out)
	if m == nil || string(m[1]) == "0" {
		t.Fatalf("no in-run capture reported:\n%s", out)
	}
	g, err := ParseGenSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err = graph.LargestComponent(g)
	if err != nil {
		t.Fatal(err)
	}
	est, err := restoreSession(path, betweenness.Undirected(g), nil)
	if err != nil {
		t.Fatalf("restoreSession refused the file: %v", err)
	}
	if est.Backend() != "shared-memory" || est.Snapshot().Tau == 0 {
		t.Fatalf("the file restored on %q with tau %d", est.Backend(), est.Snapshot().Tau)
	}
	assertOnlyEntries(t, filepath.Dir(path), "s.bck")
}
