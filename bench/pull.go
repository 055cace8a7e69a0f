package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgpdump"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// reference is what the sequential in-process pipeline (directory
// source, one decode worker, bgpdump.FormatElem) makes of a corpus
// part. Every bgpreader invocation is checked against it, which
// cross-checks HTTP + parallel prefetch against local + sequential.
type reference struct {
	Lines  int    `json:"lines"`
	Digest string `json:"sha256"`
	First  string `json:"first"` // the first output line, what `-n 1` must print
}

// computeReference also files every elem it sees in hist (nil for none).
func computeReference(dir string, filters core.Filters, hist *prefixHistogram) (reference, error) {
	var ref reference
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	n, err := scanElems(dir, filters, func(rec *core.Record, e *core.Elem) {
		if hist != nil {
			hist.add(e, e.Type != core.ElemWithdrawal)
		}
		line := bgpdump.FormatElem(rec, e)
		if ref.Lines == 0 {
			ref.First = line
		}
		ref.Lines++
		w.WriteString(line)
		w.WriteByte('\n')
	})
	if err != nil {
		return ref, err
	}
	if n == 0 {
		return ref, errors.New("reference output is empty")
	}
	w.Flush()
	ref.Digest = hex.EncodeToString(h.Sum(nil))
	return ref, nil
}

// verifyOutput reads a bgpreader output and says why it differs from
// the reference ("" when it does not).
func verifyOutput(r io.Reader, ref reference) string {
	h := sha256.New()
	lines := 0
	buf := make([]byte, 1<<16)
	for {
		n, err := r.Read(buf)
		h.Write(buf[:n])
		lines += bytes.Count(buf[:n], []byte{'\n'})
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return "read output: " + err.Error()
		}
	}
	if lines != ref.Lines {
		return fmt.Sprintf("%d output lines, reference has %d", lines, ref.Lines)
	}
	if hex.EncodeToString(h.Sum(nil)) != ref.Digest {
		return "output SHA-256 differs from the reference"
	}
	return ""
}

// prepared is one completed set-up of a workload, as the set-up child
// process reports it to the harness.
type prepared struct {
	Manifest *manifest `json:"manifest"`
	Ref      reference `json:"reference"` // pull workloads only
	Bin      string    `json:"bin"`       // pull workloads only
	Args     []string  `json:"args"`      // pull workloads only
	// ProbeArgs and ProbeFirst are the arguments of the time-to-first-elem
	// probe (before `-n 1`) and the line it must print. They are Args and
	// Ref.First except on pull_filtered_dir, where the elem filter is
	// left out: with it the probe would time how far into the seed's
	// stream the first match happens to sit.
	ProbeArgs  []string `json:"probe_args"`
	ProbeFirst string   `json:"probe_first"`
	Filter     string   `json:"filter"`     // the run's filter in the filter language
	Prefix     string   `json:"prefix"`     // the prefix 1-2 % of the part's elems are routes within
	ElemsRead  int      `json:"elems_read"` // elems the reader decodes, passed or not
}

// prepare does the whole set-up of a workload once: the corpus part,
// and for a pull workload the reference, the binary and — over HTTP —
// the CSV index pointing at baseURL.
func (e *env) prepare(w *workload, baseURL string) (*prepared, error) {
	dir := e.corpusDir()
	man, err := generateCorpus(dir, e.seed, w.part)
	if err != nil {
		return nil, err
	}
	typed := core.Filters{DumpTypes: []core.DumpType{w.part.DumpType}}
	typedArgs := []string{"-d", dir, "-m", "-v", "-t", string(w.part.DumpType)}
	p := &prepared{Manifest: man, Filter: "type " + string(w.part.DumpType), Args: typedArgs}
	// hist finds the prefix that routes (announcements, RIB entries)
	// making up 1-2 % of the part's elems fall within, whatever the seed.
	var hist prefixHistogram
	count := func(rec *core.Record, el *core.Elem) {
		if hist.total == 0 {
			p.ProbeFirst = bgpdump.FormatElem(rec, el)
		}
		hist.add(el, el.Type != core.ElemWithdrawal)
	}
	refFilters, refHist := typed, &hist // an unfiltered reference pass is the counting pass too
	switch {
	case w.push && !e.traced:
		man.Elems, err = scanElems(dir, typed, count)
		p.ElemsRead = man.Elems
		return p, err
	case w.filtered:
		if man.Elems, err = scanElems(dir, typed, count); err != nil {
			return nil, err
		}
		p.Filter = fmt.Sprintf("type updates and prefix more %s and elemtype announcements", hist.closest(0.015))
		if refFilters, err = core.ParseFilterString(p.Filter); err != nil {
			return nil, err
		}
		refHist = nil
		p.Args = []string{"-d", dir, "-m", "-v", "-filter", p.Filter}
		p.ProbeArgs = typedArgs
	case w.http:
		index := filepath.Join(e.work, "index.csv")
		if err := writeIndex(index, dir, baseURL, w.part.DumpType); err != nil {
			return nil, err
		}
		p.Args = []string{"-csv", index, "-m", "-v", "-t", string(w.part.DumpType)}
	}
	if p.Ref, err = computeReference(dir, refFilters, refHist); err != nil {
		return nil, err
	}
	if !w.filtered {
		man.Elems = p.Ref.Lines
		p.ProbeArgs, p.ProbeFirst = p.Args, p.Ref.First
	}
	p.Prefix = hist.closest(0.015).String()
	p.ElemsRead = man.Elems
	if p.Bin, err = e.buildReader(); err != nil {
		return nil, err
	}
	return p, nil
}

func (e *env) corpusDir() string { return filepath.Join(e.work, "corpus") }

// buildReader compiles cmd/bgpreader of this checkout. The old binary
// is removed first so that every set-up pays at least the link.
func (e *env) buildReader() (string, error) {
	bin := filepath.Join(e.work, "bgpreader")
	if err := os.Remove(bin); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bgpreader")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bgpreader: %v\n%s", err, out)
	}
	return bin, nil
}

// writeIndex writes the csvfile index of the dumps of one type, with
// URLs below baseURL so that every file goes through resilience.Fetcher.
func writeIndex(path, dir, baseURL string, t core.DumpType) error {
	metas, err := (&archive.Store{Root: dir}).Scan()
	if err != nil {
		return err
	}
	var b strings.Builder
	for _, m := range metas {
		if m.Type != t {
			continue
		}
		rel, err := filepath.Rel(dir, m.URL)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%s/%s\n", m.Project, m.Collector, m.Type,
			m.Time.Unix(), int(m.Duration.Seconds()), baseURL, filepath.ToSlash(rel))
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// serveArchive serves dir the way cmd/collectorsim -serve does, on a
// loopback port. stop shuts the server down and waits for it.
func serveArchive(dir string) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: &archive.Server{Store: &archive.Store{Root: dir}}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once Close is called
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// invocation is one bgpreader process.
type invocation struct {
	wall   time.Duration
	cpu    time.Duration // utime + stime of the child
	rssKB  int64         // Rusage.Maxrss of the child
	failed string        // "" when it ran, exited 0 and passed its outputCheck
}

// outputCheck is how an invocation's output is checked.
type outputCheck int

const (
	// checkDigest sends the output to a file and compares its SHA-256
	// and line count with the reference after the process has exited.
	// Writing the file costs the reader about 8 % and some noise, so
	// such an invocation is not timed.
	checkDigest outputCheck = iota
	// checkCount sends the output to /dev/null and compares the elem
	// counter `bgpreader -v` prints on exit with the reference's line
	// count. The timed invocations use it.
	checkCount
	// checkFirst is for `-n 1`: the one line against the reference's
	// first.
	checkFirst
)

var elemsCounter = regexp.MustCompile(`pipeline:.* elems=(\d+)`)

// invoke runs the reader once, exec to exit.
func (p *prepared) invoke(args []string, check outputCheck, outPath string, timeout time.Duration) invocation {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, p.Bin, args...)
	var stderr, stdout bytes.Buffer
	cmd.Stderr = &stderr
	switch check {
	case checkDigest:
		out, err := os.Create(outPath)
		if err != nil {
			return invocation{failed: err.Error()}
		}
		defer out.Close()
		cmd.Stdout = out
	case checkCount:
		// A nil Stdout is /dev/null.
	case checkFirst:
		cmd.Stdout = &stdout
	}
	t0 := time.Now()
	err := cmd.Run()
	inv := invocation{wall: time.Since(t0)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			inv.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			inv.rssKB = ru.Maxrss
		}
	}
	switch {
	case ctx.Err() != nil:
		inv.failed = fmt.Sprintf("timed out after %s", timeout)
	case err != nil:
		inv.failed = fmt.Sprintf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	case check == checkDigest:
		out, err := os.Open(outPath)
		if err != nil {
			inv.failed = err.Error()
			break
		}
		defer out.Close()
		inv.failed = verifyOutput(out, p.Ref)
	case check == checkCount:
		if m := elemsCounter.FindSubmatch(stderr.Bytes()); m == nil {
			inv.failed = "bgpreader -v printed no elem counter"
		} else if string(m[1]) != strconv.Itoa(p.Ref.Lines) {
			inv.failed = fmt.Sprintf("%s elems printed, reference has %d", m[1], p.Ref.Lines)
		}
	case check == checkFirst:
		if want := p.ProbeFirst + "\n"; stdout.String() != want {
			inv.failed = fmt.Sprintf("output %q, want %q", stdout.String(), want)
		}
	}
	return inv
}

const (
	minInvocations  = 3
	firstElemProbes = 15
)

// runPull measures one pull workload: back-to-back invocations of the
// binary for e.seconds (closed loop, one process at a time), then the
// time-to-first-elem probes.
func (e *env) runPull(w *workload) (*runResult, error) {
	baseURL := ""
	if w.http {
		var stop func()
		var err error
		baseURL, stop, err = serveArchive(e.corpusDir())
		if err != nil {
			return nil, err
		}
		defer stop()
	}
	p, setup, err := e.repeatSetup(w, baseURL)
	if err != nil {
		return nil, err
	}
	res := newRunResult(p.Manifest)
	res.Metrics["setup_s"] = setup
	res.Extra["pass_share"] = float64(p.Ref.Lines) / float64(p.ElemsRead)
	res.Extra["elems_read"] = float64(p.ElemsRead)

	// The first invocation writes its output to a file and is checked
	// byte for byte; it also warms the page cache and says how long one
	// takes. The timed ones write to /dev/null and are checked by count.
	outPath := filepath.Join(e.work, "out.txt")
	defer os.Remove(outPath)
	inv := p.invoke(p.Args, checkDigest, outPath, 60*time.Second)
	res.count(inv.failed)
	if inv.failed != "" {
		return res, fmt.Errorf("bgpreader: %s", inv.failed)
	}
	timeout := max(10*inv.wall, 60*time.Second)
	var rate, cpu, rss []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for i := 0; i < minInvocations || time.Now().Before(deadline); i++ {
		inv := p.invoke(p.Args, checkCount, "", timeout)
		res.count(inv.failed)
		if inv.failed != "" {
			fmt.Fprintf(os.Stderr, "%s: invocation %d failed: %s\n", w.name, i, inv.failed)
			if inv.wall >= timeout {
				break // a hang: do not spend the whole run on timeouts
			}
			continue
		}
		rate = append(rate, float64(p.ElemsRead)/inv.wall.Seconds())
		cpu = append(cpu, inv.cpu.Seconds()/float64(p.ElemsRead)*1e6)
		rss = append(rss, float64(inv.rssKB)/1024)
	}
	first := e.firstElem(p, res)
	if len(rate) == 0 || len(first) == 0 {
		return res, errors.New("no invocation succeeded")
	}
	res.Metrics["elems_per_s"] = median(rate)
	res.Metrics["cpu_s_per_melem"] = median(cpu)
	res.Metrics["peak_rss_mb"] = median(rss)
	res.Metrics["latency_p50_ms"] = median(first)
	res.Extra["invocations"] = float64(len(rate))
	res.Extra["elems_per_s_spread"] = spread(rate)
	return res, nil
}

// firstElem times `bgpreader <probe args> -n 1` from exec to exit, in
// milliseconds, and checks the one line it prints.
func (e *env) firstElem(p *prepared, res *runResult) []float64 {
	var ms []float64
	args := append(append([]string(nil), p.ProbeArgs...), "-n", "1")
	for i := 0; i < firstElemProbes; i++ {
		inv := p.invoke(args, checkFirst, "", 60*time.Second)
		res.count(inv.failed)
		if inv.failed != "" {
			fmt.Fprintf(os.Stderr, "first-elem probe %d failed: %s\n", i, inv.failed)
			continue
		}
		ms = append(ms, float64(inv.wall)/float64(time.Millisecond))
	}
	return ms
}
