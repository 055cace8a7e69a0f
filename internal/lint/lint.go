// Package lint is the repo's static-analysis suite: a self-contained
// go/analysis-style framework (the container bakes in no
// golang.org/x/tools, so the Analyzer/Pass surface is reimplemented on
// go/ast + go/types) plus five analyzers that machine-enforce the
// invariants the ROADMAP otherwise leaves to reviewer memory:
//
//	eofcompare      err == io.EOF outside tests (use errors.Is)
//	hotpathalloc    allocating constructs in //bgp:hotpath functions
//	obsvlabels      per-elem obsv vec With() interning
//	goleak          goroutines-in-loops without a channel exit,
//	                time.After inside loops
//	lockdiscipline  atomic/plain mixed field access, mutex-after-
//	                guarded-fields layout
//
// The suite runs standalone through cmd/bgplint (and as a
// go vet -vettool), and each analyzer has golden-file coverage under
// testdata/ driven by the harness in golden_test.go.
//
// Source directives (comment markers the analyzers understand):
//
//	//bgp:hotpath    on a function doc comment: the function is an
//	                 allocation-audited hot path; hotpathalloc checks
//	                 its body.
//	//bgp:alloc-ok   on or above a flagged line inside a hot path:
//	                 the allocation is sanctioned (arena growth,
//	                 cold error branch); hotpathalloc skips it.
//	//bgp:coldpath   on a function doc comment: obsvlabels treats the
//	                 function as registration-time code where vec
//	                 With() interning is allowed.
//	//bgp:leak-ok    on or above a flagged line: goleak skips it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate
// onto the real framework if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the one-paragraph description shown by bgplint -list.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether the file is a _test.go file. All five
// analyzers enforce production-code invariants only, so test files are
// exempt wholesale (tests compare sentinel errors directly, allocate
// freely, and leak goroutines into t.Cleanup on purpose).
func (p *Pass) isTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// All is the full suite in reporting order.
var All = []*Analyzer{EOFCompare, HotPathAlloc, ObsvLabels, GoLeak, LockDiscipline}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies each analyzer to the package and returns the combined
// findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// --- directive helpers -------------------------------------------------

var directiveRe = regexp.MustCompile(`^//bgp:([a-z-]+)\b`)

// hasDirective reports whether the comment group contains the given
// //bgp: directive (e.g. directive "hotpath" matches "//bgp:hotpath").
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if m := directiveRe.FindStringSubmatch(c.Text); m != nil && m[1] == directive {
			return true
		}
	}
	return false
}

// suppressedLines collects the source lines on which the given
// directive suppresses findings: the directive's own line (trailing
// comment form) and the line below it (comment-above form).
func suppressedLines(fset *token.FileSet, f *ast.File, directive string) map[int]bool {
	var lines map[int]bool
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := directiveRe.FindStringSubmatch(c.Text); m == nil || m[1] != directive {
				continue
			}
			if lines == nil {
				lines = make(map[int]bool)
			}
			line := fset.Position(c.Pos()).Line
			lines[line] = true
			lines[line+1] = true
		}
	}
	return lines
}

// pkgPathIs reports whether obj belongs to a package whose import path
// is path or ends in "/"+path. The suffix form lets testdata packages
// stand in for repo-internal packages (e.g. a testdata "obsv" package
// for internal/obsv).
func pkgPathIs(obj types.Object, path string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == path || strings.HasSuffix(p, "/"+path)
}

// calleeFunc resolves the called function or method object of a call
// expression, or nil (builtins, type conversions, function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgLevelFunc reports whether fn is a package-level function (not a
// method) — distinguishing time.After from time.Time.After.
func isPkgLevelFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isBuiltinCall reports whether the call invokes the named predeclared
// builtin (append, make, new, ...).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
