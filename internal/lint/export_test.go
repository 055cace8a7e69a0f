package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// LoadFixture type-checks the golden-test package at srcRoot/path, all
// of its .go files (_test.go included, which the analyzers exempt
// themselves) as one unit. Fixtures have no compiler export data, so
// an import naming a directory below srcRoot is type-checked from
// source too; every other import goes through the export data that
// go list -export reports, as in both bgplint modes.
func LoadFixture(srcRoot, path string) (*Package, error) {
	export, err := fixtureExports(srcRoot)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	gc := exportImporter(fset, export)
	loaded := make(map[string]*Package)
	var load func(path string) (*Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := fixtureDir(srcRoot, path); !ok {
			return gc.Import(path)
		}
		pkg, err := load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	})
	load = func(path string) (*Package, error) {
		if pkg, ok := loaded[path]; ok {
			return pkg, nil
		}
		dir, _ := fixtureDir(srcRoot, path)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		pkg, err := checkUnit(fset, &unit{ImportPath: path, Dir: dir, GoFiles: files}, imp)
		if err != nil {
			return nil, err
		}
		loaded[path] = pkg
		return pkg, nil
	}
	return load(path)
}

// fixtureDir returns the directory below srcRoot that holds the
// fixture package path, and whether there is one.
func fixtureDir(srcRoot, path string) (string, bool) {
	dir := filepath.Join(srcRoot, filepath.FromSlash(path))
	st, err := os.Stat(dir)
	return dir, err == nil && st.IsDir()
}

// fixtureExports lists the export data of every import the fixture
// tree makes outside itself.
func fixtureExports(srcRoot string) (map[string]string, error) {
	imports := make(map[string]bool)
	err := filepath.WalkDir(srcRoot, func(name string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(name, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if _, ok := fixtureDir(srcRoot, path); !ok {
				imports[path] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var patterns []string
	for path := range imports {
		patterns = append(patterns, path)
	}
	listed, err := goList(srcRoot, patterns)
	if err != nil {
		return nil, err
	}
	return exportFiles(listed), nil
}
