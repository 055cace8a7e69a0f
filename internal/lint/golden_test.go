package lint_test

// The golden-file harness behind the analyzer tests, a miniature
// analysistest: runGolden loads a GOPATH-style fixture package from a
// testdata tree, runs analyzers over it, and matches every diagnostic
// against `// want "regexp"` comments in the fixture sources. Each want
// expectation must be satisfied by a diagnostic on its line, and each
// diagnostic must be claimed by a want expectation — golden coverage
// in both directions, so analyzers cannot silently over- or
// under-report.

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/bgpstream-go/bgpstream/internal/lint"
)

// wantRe matches an expectation marker anywhere in a comment:
// `want "regexp"` or `want `+"`regexp`"+“ followed by further quoted
// alternatives. The marker may trail other comment text (e.g. a
// "guarded by mu" directive the fixture also needs on that line).
var wantRe = regexp.MustCompile("\\bwant\\s+((?:\"|`).*)$")

// expectation is one want marker: a diagnostic matching re must be
// reported on (file, line).
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// runGolden loads the fixture package at <testdata>/src/<path>
// (imports resolve GOPATH-style below <testdata>/src first, then the
// standard library), applies the analyzers, and fails t on any
// mismatch between diagnostics and want expectations.
func runGolden(t *testing.T, testdata, path string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadFixture(filepath.Join(testdata, "src"), path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := lint.Run(pkg, analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", path, err)
	}

	wants := collectWants(t, pkg.Fset, pkg)
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %s", w.file, w.line, w.raw)
		}
	}
}

// claim marks the first unmatched expectation on the diagnostic's line
// whose regexp matches its message.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every want marker in the package's comments.
func collectWants(t *testing.T, fset *token.FileSet, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  strconv.Quote(pat),
					})
				}
			}
		}
	}
	return wants
}

// splitQuoted decodes the sequence of Go-quoted strings after a want
// marker: want "a" "b" or want `a` `b`.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		prefix, err := strconv.QuotedPrefix(s)
		if err != nil {
			t.Fatalf("%s:%d: malformed want expectation %q: %v", pos.Filename, pos.Line, s, err)
		}
		pat, err := strconv.Unquote(prefix)
		if err != nil {
			t.Fatalf("%s:%d: malformed want expectation %q: %v", pos.Filename, pos.Line, prefix, err)
		}
		out = append(out, pat)
		s = s[len(prefix):]
	}
	return out
}
