package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// A unit is one package to type-check. Both bgplint modes reduce to
// units — go vet hands the tool one per .cfg file, the standalone
// mode lists them with go list -export — and both type-check them
// the same way, through checkUnit, against compiler export data.
type unit struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string // import path as written → canonical path
}

// exportImporter imports each package from the compiler export data
// file that export names for its canonical path. It keeps what it
// decodes, so the units that share one share the decoding too.
func exportImporter(fset *token.FileSet, export map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// checkUnit parses u's files and type-checks them, resolving each
// import through u.ImportMap and then imp.
func checkUnit(fset *token.FileSet, u *unit, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range u.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if canonical, ok := u.ImportMap[path]; ok {
			path = canonical
		}
		return imp.Import(path)
	})}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tpkg, err := conf.Check(u.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", u.ImportPath, err)
	}
	return &Package{
		ImportPath: u.ImportPath,
		Dir:        u.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load type-checks the non-test Go files of each package matching the
// go list patterns, relative to dir, in import-path order. One
// go list -export -deps call enumerates the packages and builds (or
// finds in the build cache) the export data of all their dependencies.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })
	fset := token.NewFileSet()
	imp := exportImporter(fset, exportFiles(listed))
	var pkgs []*Package
	for _, m := range listed {
		if m.DepOnly || len(m.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(m.GoFiles))
		for i, f := range m.GoFiles {
			files[i] = filepath.Join(m.Dir, f)
		}
		pkg, err := checkUnit(fset, &unit{m.ImportPath, m.Dir, files, m.ImportMap}, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	ImportMap  map[string]string
}

// goList runs go list -export -deps over the patterns: the packages
// they name, then every dependency (DepOnly), each with its export
// data file.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,ImportMap"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var metas []listedPackage
	for {
		var m listedPackage
		if err := dec.Decode(&m); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: parsing go list output: %w", err)
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// exportFiles maps each listed package's import path to its export
// data file.
func exportFiles(listed []listedPackage) map[string]string {
	export := make(map[string]string, len(listed))
	for _, m := range listed {
		if m.Export != "" {
			export[m.ImportPath] = m.Export
		}
	}
	return export
}
