// Repolint runs the repo's custom static-analysis suite (internal/analysis):
// ctxleak, deadexport, epochframe, hotpathalloc, layerimport, mmapsafe,
// rankdead.
//
// Two modes share one binary:
//
//	repolint ./...              # standalone: load, analyze, print findings
//	go vet -vettool=repolint .  # unitchecker: driven by the go command
//
// The vet protocol hands the tool one package at a time, so deadexport,
// which needs the whole module (and the nested bench/ module, which the
// standalone loader adds), runs only standalone over ./.... Every analyzer
// always runs: there is no switch to turn one off.
//
// Standalone mode exits 0 on a clean tree, 1 with findings (one per line,
// "file:line:col: message (analyzer)"), 2 on a load or internal error —
// the staticcheck convention, and what scripts/lint.sh and the CI analyze
// job key off. The vet protocol (-V=full, -flags, *.cfg) matches
// x/tools/go/analysis/unitchecker so `go vet -vettool` caching works.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repolint: ")

	all := analysis.All()
	printFlags := flag.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	printPath := flag.Bool("print-path", false, "print the path of this executable (for go vet -vettool=$(...))")
	flag.Var(versionFlag{}, "V", "print version and exit (go vet protocol)")
	flag.Parse()

	if *printFlags {
		emitFlagsJSON()
		return
	}
	if *printPath {
		exe, err := os.Executable()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(exe)
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runVet(args[0], all, *jsonOut)
		return
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	units, err := framework.Load(".", args...)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	findings, err := framework.Analyze(units, all)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findings); err != nil {
			log.Fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// emitFlagsJSON implements the -flags half of the go vet protocol: the go
// command asks which flags the tool supports before forwarding any.
func emitFlagsJSON() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "print-path" {
			return // meaningless under go vet
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements -V=full: the go command hashes the output into
// its build cache key so edited analyzers invalidate cached vet results.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() interface{} { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
