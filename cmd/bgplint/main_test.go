package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// needGo skips the test when the go command is missing: the
// standalone mode lists packages and their export data with go list.
func needGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go command not on PATH")
	}
}

// TestRepoIsLintClean is the suite's smoke test: the full analyzer set
// must exit clean over the repo itself (the module pattern makes the
// sweep independent of the test's working directory). Any finding here
// is a regression against an invariant the codebase already satisfies.
func TestRepoIsLintClean(t *testing.T) {
	needGo(t)
	var stdout, stderr strings.Builder
	code := run([]string{"github.com/bgpstream-go/bgpstream/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bgplint exited %d on the repo\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Fatalf("bgplint reported findings:\n%s", out)
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bgplint -list exited %d: %s", code, stderr.String())
	}
	for _, name := range []string{"eofcompare", "hotpathalloc", "obsvlabels", "goleak", "lockdiscipline"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("bgplint -list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestVersionHandshake(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("bgplint -V=full exited %d: %s", code, stderr.String())
	}
	// The go command parses this line to extract a build ID, so the
	// format is part of the vettool contract.
	if !strings.Contains(stdout.String(), "bgplint version") || !strings.Contains(stdout.String(), "buildID=") {
		t.Errorf("-V=full output is not a valid vettool handshake: %q", stdout.String())
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("bgplint -run nope exited %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %q", stderr.String())
	}
}

// findingRe splits a finding line into file, line and the
// "[analyzer] message" tail; the column and any go vet "# pkg" header
// lines are left out of the comparison.
var findingRe = regexp.MustCompile(`^(.+?):(\d+):\d+: (\[\w+\] .*)$`)

// findings normalizes the finding lines in out to a sorted
// "file:line: [analyzer] message" set, file relative to dir.
func findings(t *testing.T, dir, out string) []string {
	t.Helper()
	var got []string
	for _, line := range strings.Split(out, "\n") {
		m := findingRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := m[1]
		if filepath.IsAbs(file) {
			rel, err := filepath.Rel(dir, file)
			if err != nil {
				t.Fatal(err)
			}
			file = rel
		}
		got = append(got, filepath.ToSlash(filepath.Clean(file))+":"+m[2]+": "+m[3])
	}
	slices.Sort(got)
	return got
}

// TestModesReportSameFindings pins both entry points to one
// type-check path. Over a tiny stdlib-only module holding one known
// hotpathalloc finding and one known eofcompare finding, the
// standalone mode must exit 2 and print exactly those, and go vet
// -vettool must report the same set.
func TestModesReportSameFindings(t *testing.T) {
	needGo(t)
	pkgDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(pkgDir, "testdata", "parity")
	want := []string{
		"parity.go:12: [hotpathalloc] Grow: make/new allocates per call; hoist into the constructor or arena (//bgp:alloc-ok for sanctioned growth)",
		"parity.go:17: [eofcompare] comparison with io.EOF misses wrapped EOFs; use errors.Is(err, io.EOF)",
	}

	t.Chdir(dir)
	var stdout, stderr strings.Builder
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("bgplint exited %d, want 2\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := findings(t, dir, stdout.String()); !slices.Equal(got, want) || strings.Count(stdout.String(), "\n") != len(want) {
		t.Fatalf("standalone findings:\n%s\nwant:\n%s", stdout.String(), strings.Join(want, "\n"))
	}

	if testing.Short() {
		t.Skip("builds bgplint and runs go vet; skipped in -short mode")
	}
	tool := filepath.Join(t.TempDir(), "bgplint")
	build := exec.Command("go", "build", "-o", tool, ".")
	build.Dir = pkgDir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building bgplint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Errorf("go vet -vettool succeeded on a module with findings:\n%s", out)
	}
	if got := findings(t, dir, string(out)); !slices.Equal(got, want) {
		t.Fatalf("go vet -vettool findings:\n%s\nwant:\n%s", out, strings.Join(want, "\n"))
	}
}
