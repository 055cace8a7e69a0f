package lint

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
)

// vetConfig is the subset of the JSON configuration the go command
// writes for `go vet -vettool` invocations (x/tools unitchecker
// protocol) that the suite consumes: one package per process, with
// its dependencies supplied as compiler export data.
type vetConfig struct {
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunVetUnit runs the analyzers on one vet unit described by the .cfg
// file the go command hands a vettool. It returns the process exit
// code: 0 clean, 2 findings, 1 operational failure (with the error
// printed to w).
func RunVetUnit(cfgFile string, analyzers []*Analyzer, w io.Writer) int {
	diags, err := vetUnit(cfgFile, analyzers)
	if err != nil {
		fmt.Fprintf(w, "bgplint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(w, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func vetUnit(cfgFile string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	// The go command requires the facts output file to exist even
	// though this suite exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("bgplint: no facts\n"), 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		// Dependency visited only for facts; nothing to analyze.
		return nil, nil
	}
	fset := token.NewFileSet()
	pkg, err := checkUnit(fset, &unit{cfg.ImportPath, cfg.Dir, cfg.GoFiles, cfg.ImportMap}, exportImporter(fset, cfg.PackageFile))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, err
	}
	return Run(pkg, analyzers)
}
