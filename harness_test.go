package bgpstream_test

import (
	"os/exec"
	"testing"
)

// TestBenchHarnessBuilds vets the benchmark harness under bench/. It is
// a module of its own, so `go build ./...` and `go test ./...` here
// never compile it: without this test, a change to a package the
// harness imports can break the benchmark while every root test
// stays green.
func TestBenchHarnessBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the bench module; skipped under -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH")
	}
	if out, err := exec.Command(goBin, "vet", "-C", "bench", ".").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench .: %v\n%s", err, out)
	}
}
