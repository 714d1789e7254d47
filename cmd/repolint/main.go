// Repolint runs the repo's custom static-analysis suite (internal/analysis):
// ctxleak, deadexport, epochframe, hotpathalloc, layerimport, mmapsafe,
// rankdead.
//
//	repolint ./...
//
// It loads every unit of the given packages (default ./...) — each plain
// package, its in-package test variant and its external _test package,
// plus the nested bench/ module as a source of references — and runs
// every analyzer over them; there is no switch to turn one off. deadexport
// judges each exported name by the whole module, so its verdict holds
// only over ./....
//
// It exits 0 on a clean tree, 1 with findings (one per line,
// "file:line:col: message (analyzer)"), 2 on a load or internal error —
// the staticcheck convention, and what scripts/lint.sh and the CI analyze
// job key off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/framework"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("repolint: ")

	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	units, err := framework.Load(".", args...)
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	findings, err := framework.Analyze(units, analysis.All())
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
