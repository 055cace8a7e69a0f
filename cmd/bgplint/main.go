// Command bgplint runs the repo's static-analysis suite
// (internal/lint): five analyzers that machine-enforce the hot-path
// allocation, EOF-comparison, metrics label-interning, goroutine/timer
// lifecycle, and lock layout invariants the ROADMAP ground rules
// state.
//
// Standalone, over go list patterns (default ./...):
//
//	go run ./cmd/bgplint ./...
//	bgplint -list
//	bgplint -run eofcompare,goleak ./internal/...
//
// As a go vet tool, so the suite also runs under go vet:
//
//	go build -o bgplint ./cmd/bgplint
//	go vet -vettool=$(pwd)/bgplint ./...
//
// Both modes type-check each package the same way, against the
// compiler export data of its dependencies: go vet supplies that data
// per package, the standalone mode lists it with go list -export.
// -run selects analyzers in either mode.
//
// Exit status: 0 clean, 2 findings, 1 operational error.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/bgpstream-go/bgpstream/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// executableID hashes the running binary, mimicking the build-ID
// stamp the go command reads from `tool -V=full` output to decide
// when cached vet results are stale.
func executableID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%02x", h.Sum(nil)), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bgplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	version := fs.String("V", "", "print version and exit (go vet tool handshake)")
	flagsJSON := fs.Bool("flags", false, "print analyzer flag definitions as JSON (go vet tool handshake)")
	list := fs.Bool("list", false, "list analyzers and exit")
	runNames := fs.String("run", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	switch {
	case *version != "":
		// The go command identifies vet tools by `tool -V=full` and
		// expects a content hash it can use as the tool's build ID.
		id, err := executableID()
		if err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "bgplint version devel comments-go-here buildID=%s\n", id)
		return 0
	case *flagsJSON:
		fmt.Fprintln(stdout, "[]")
		return 0
	case *list:
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *runNames != "" {
		analyzers = nil
		for _, name := range strings.Split(*runNames, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "bgplint: unknown analyzer %q (see -list)\n", name)
				return 1
			}
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	// go vet invokes the tool with a single *.cfg argument describing
	// one compiled package (the unitchecker protocol).
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lint.RunVetUnit(rest[0], analyzers, stderr)
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bgplint: %v\n", err)
		return 1
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "bgplint: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s\n", d)
		}
		findings += len(diags)
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "bgplint: %d finding(s) in %d package(s)\n", findings, len(pkgs))
		return 2
	}
	return 0
}
