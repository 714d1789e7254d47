package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"log"
	"os"
	"strings"

	"repro/internal/analysis/framework"
)

// vetConfig is the JSON compilation-unit description `go vet` hands a
// -vettool for each package, mirroring x/tools unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVet analyzes the single unit described by cfgFile and exits with the
// unitchecker conventions: diagnostics to stderr (or a JSON tree on
// stdout with -json), exit 1 on findings, and an (empty — the suite has
// no facts) vetx output so the go command's caching contract holds.
func runVet(cfgFile string, analyzers []*framework.Analyzer, jsonOut bool) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				os.Exit(0) // the compiler will report it better
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	conf := &types.Config{
		Importer:  framework.ExportImporter(fset, cfg.ImportMap, cfg.PackageFile),
		GoVersion: strings.TrimSuffix(cfg.GoVersion, " "),
	}
	info := framework.NewTypesInfo()
	path := cfg.ImportPath
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i] // test variants compile under the base path
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatalf("typecheck %s: %v", cfg.ImportPath, err)
	}

	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}

	// A module-wide analyzer would see one unit and none of its callers,
	// so only the per-unit analyzers run under the vet protocol.
	var perUnit []*framework.Analyzer
	for _, a := range analyzers {
		if a.Run != nil {
			perUnit = append(perUnit, a)
		}
	}
	unit := &framework.Unit{ID: cfg.ID, Fset: fset, Files: files, Pkg: pkg, Info: info}
	findings, err := framework.Analyze([]*framework.Unit{unit}, perUnit)
	if err != nil {
		log.Fatal(err)
	}

	if jsonOut {
		// The unitchecker JSON shape: {"pkg": {"analyzer": [diagnostic]}}.
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := make(map[string][]jsonDiag)
		for _, f := range findings {
			byAnalyzer[f.Analyzer] = append(byAnalyzer[f.Analyzer], jsonDiag{f.Pos.String(), f.Message})
		}
		tree := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(tree); err != nil {
			log.Fatal(err)
		}
		os.Exit(0)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", f.Pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}
