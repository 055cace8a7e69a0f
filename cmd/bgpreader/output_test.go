package main

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	bgpstream "github.com/bgpstream-go/bgpstream"
	"github.com/bgpstream-go/bgpstream/internal/bgpdump"
	"github.com/bgpstream-go/bgpstream/internal/obsv"
)

// referenceLines renders the archive in process — directory source,
// one decode worker, the string-returning Format* functions — which is
// the check the bench harness makes of the binary's output.
func referenceLines(t *testing.T, dir string) (machine, verbose, records []string) {
	t.Helper()
	open := func() *bgpstream.Stream {
		s, err := bgpstream.Open(context.Background(),
			bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}),
			bgpstream.WithDecodeWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for rec, elem := range s.Elems() {
		machine = append(machine, bgpdump.FormatElem(rec, elem))
		verbose = append(verbose, bgpdump.FormatElemVerbose(rec, elem))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = open()
	for rec := range s.Records() {
		records = append(records, bgpdump.FormatRecord(rec))
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if len(machine) < 1000 || len(records) == 0 {
		t.Fatalf("archive too small to mean anything: %d elems, %d records", len(machine), len(records))
	}
	return machine, verbose, records
}

// joined is what a run printing lines must have written: every line
// newline-terminated, nothing else.
func joined(lines []string) string { return strings.Join(lines, "\n") + "\n" }

// TestRunArchiveOutput pins bgpreader's write path byte for byte: over
// a directory archive (RIB dumps and updates, default parallel
// decode), -m, the default verbose format and -r print exactly the
// reference lines, and -n cuts the same output after n lines.
func TestRunArchiveOutput(t *testing.T) {
	dir := genArchive(t, 600)
	machine, verbose, records := referenceLines(t, dir)
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"machine", []string{"-m"}, machine},
		{"verbose", nil, verbose},
		{"records", []string{"-r"}, records},
		{"machine -n 1", []string{"-m", "-n", "1"}, machine[:1]},
		{"machine -n 7", []string{"-m", "-n", "7"}, machine[:7]},
		{"verbose -n 7", []string{"-n", "7"}, verbose[:7]},
		{"records -n 1", []string{"-r", "-n", "1"}, records[:1]},
	} {
		var out, errb bytes.Buffer
		if err := run(append([]string{"-d", dir}, c.args...), &out, &errb); err != nil {
			t.Fatalf("%s: run: %v (stderr: %s)", c.name, err, errb.String())
		}
		if got, want := out.String(), joined(c.want); got != want {
			t.Errorf("%s: %d bytes in %d lines, want %d bytes in %d lines; first difference at byte %d",
				c.name, len(got), strings.Count(got, "\n"), len(want), len(c.want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

var errDiskFull = errors.New("no space left on device")

// failingWriter accepts limit bytes and fails every write after that.
type failingWriter struct {
	limit, written int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, errDiskFull
	}
	w.written += len(p)
	return len(p), nil
}

func elemsDelivered() float64 {
	for _, p := range obsv.Default.Gather() {
		if p.Family == "bgpstream_stream_elems_total" {
			return p.Value
		}
	}
	return 0
}

// TestRunReportsWriteErrors: a writer that fails (full disk, closed
// file) must fail the run instead of truncating the output behind exit
// status 0, and must stop the reader instead of decoding the rest of
// the archive into the void.
func TestRunReportsWriteErrors(t *testing.T) {
	dir := genArchive(t, 600)
	machine, _, _ := referenceLines(t, dir)

	// Archive mode: the output fits the 1 MiB buffer, so the failure
	// surfaces at the final flush.
	var errb bytes.Buffer
	w := &failingWriter{limit: 100}
	err := run([]string{"-d", dir, "-m"}, w, &errb)
	if !errors.Is(err, errDiskFull) {
		t.Errorf("archive mode: run = %v, want the writer's error", err)
	}
	if w.written != 100 {
		t.Errorf("archive mode: writer took %d bytes, want its 100", w.written)
	}

	// Live mode flushes per line, so the first line hits the failure
	// and the loop must end there.
	before := elemsDelivered()
	live := []string{"-d", dir, "-m", "-w", strconv.FormatInt(archiveStart.Unix(), 10)}
	done := make(chan error, 1)
	go func() { done <- run(live, &failingWriter{}, &errb) }()
	select {
	case err := <-done:
		if !errors.Is(err, errDiskFull) {
			t.Errorf("live mode: run = %v, want the writer's error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("live mode: run did not return after the write error")
	}
	if pulled := elemsDelivered() - before; pulled > float64(len(machine))/2 {
		t.Errorf("live mode: %v of %d elems pulled after the first write failed", pulled, len(machine))
	}

	// A writer with room for everything still succeeds.
	if err := run([]string{"-d", dir, "-m"}, &failingWriter{limit: 1 << 30}, &errb); err != nil {
		t.Errorf("healthy writer: run = %v", err)
	}
}
