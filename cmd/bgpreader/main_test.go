package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/collector"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

func TestParseWindow(t *testing.T) {
	start, end, live, err := parseWindow("1463011200")
	if err != nil {
		t.Fatal(err)
	}
	if !live || !end.IsZero() {
		t.Errorf("open window must be live: live=%v end=%v", live, end)
	}
	if start.Unix() != 1463011200 {
		t.Errorf("start = %v", start)
	}

	start, end, live, err = parseWindow("1000,2000")
	if err != nil || live {
		t.Fatalf("closed window: %v live=%v", err, live)
	}
	if start.Unix() != 1000 || end.Unix() != 2000 {
		t.Errorf("window = %v..%v", start, end)
	}

	for _, bad := range []string{"", "abc", "2000,1000", "1,x"} {
		if _, _, _, err := parseWindow(bad); err == nil {
			t.Errorf("parseWindow(%q) accepted", bad)
		}
	}
	_ = time.Time{}
}

func TestParsePrefixFilterFlag(t *testing.T) {
	pf, err := parsePrefix("192.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if pf.Prefix.String() != "192.0.0.0/8" {
		t.Errorf("prefix = %s", pf.Prefix)
	}
	// Bare address accepted as host prefix.
	pf, err = parsePrefix("192.0.2.1")
	if err != nil {
		t.Fatal(err)
	}
	if pf.Prefix.Bits() != 32 {
		t.Errorf("host prefix bits = %d", pf.Prefix.Bits())
	}
	if _, err := parsePrefix("not-a-prefix"); err == nil {
		t.Error("junk accepted")
	}
}

func TestListFlag(t *testing.T) {
	var l listFlag
	l.Set("a")
	l.Set("b")
	if len(l) != 2 || l.String() != "a,b" {
		t.Errorf("listFlag = %v", l)
	}
}

func TestCheckFilterConflict(t *testing.T) {
	// No -filter: legacy flags are fine.
	legacy := &legacyFilterFlags{types: "updates", prefixes: listFlag{"10.0.0.0/8"}}
	if err := checkFilterConflict("", legacy); err != nil {
		t.Errorf("legacy-only flags rejected: %v", err)
	}
	// -filter alone is fine.
	if err := checkFilterConflict("type updates", &legacyFilterFlags{}); err != nil {
		t.Errorf("filter-only rejected: %v", err)
	}
	// Mixing is rejected, naming the offending flags.
	err := checkFilterConflict("type updates", legacy)
	if err == nil {
		t.Fatal("mixing -filter with legacy flags accepted")
	}
	for _, want := range []string{"-t", "-k"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not name %s", err, want)
		}
	}
}

func TestLegacyFlagFilters(t *testing.T) {
	legacy := &legacyFilterFlags{
		types:       "updates",
		elemTypes:   "A,W",
		collectors:  listFlag{"rrc00"},
		peers:       listFlag{"3356"},
		communities: listFlag{"*:666"},
		prefixes:    listFlag{"10.0.0.0/8"},
	}
	f, err := legacy.filters()
	if err != nil {
		t.Fatal(err)
	}
	want := "collector rrc00 and type updates and elemtype announcements or withdrawals " +
		"and peer 3356 and prefix 10.0.0.0/8 and community *:666"
	if got := f.String(); got != want {
		t.Errorf("legacy filters canonical form\n got %q\nwant %q", got, want)
	}
	if _, err := (&legacyFilterFlags{types: "bogus"}).filters(); err == nil {
		t.Error("bad -t accepted")
	}
	if _, err := (&legacyFilterFlags{elemTypes: "X"}).filters(); err == nil {
		t.Error("bad -e accepted")
	}
}

// TestRunFlagErrors covers the arg-injectable command surface: flag
// conflicts and -repair wiring errors must be reported before any
// source is opened.
func TestRunFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{}, &out, &errb); err == nil {
		t.Error("run without a source accepted")
	}
	if err := run([]string{"-nonsense"}, &out, &errb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-d", "/tmp", "-filter", "type updates", "-t", "ribs"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "-filter cannot be combined") {
		t.Errorf("filter conflict error = %v", err)
	}
	if err := run([]string{"-ris-live", "http://x", "-repair"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "pull source") {
		t.Errorf("-repair without backfill error = %v", err)
	}
	if err := run([]string{"-d", "/tmp", "-repair"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "-ris-live") {
		t.Errorf("-repair without push feed error = %v", err)
	}
	if err := run([]string{"-d", "/tmp", "-repair-cursor", "/tmp/c.json"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "require -repair") {
		t.Errorf("-repair-cursor without -repair error = %v", err)
	}
	if err := run([]string{"-d", "/tmp", "-repair-concurrency", "4"}, &out, &errb); err == nil ||
		!strings.Contains(err.Error(), "require -repair") {
		t.Errorf("-repair-concurrency without -repair error = %v", err)
	}
	if err := run([]string{"-d", "/tmp", "-metrics-addr", "nonsense:port"}, &out, &errb); err == nil {
		t.Error("unbindable -metrics-addr accepted")
	}
}

// TestShowSources prints the registry and exits without needing a
// source flag.
func TestShowSources(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-show-sources"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"directory", "csvfile", "broker", "rislive", "repaired"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-show-sources output missing %q:\n%s", name, out.String())
		}
	}
	if !strings.Contains(out.String(), "pull") || !strings.Contains(out.String(), "push") {
		t.Errorf("-show-sources output missing source kinds:\n%s", out.String())
	}
}

var archiveStart = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// genArchive writes one simulated hour from archiveStart — two
// collectors, a RIB dump each plus update files carrying churn
// background flaps per hour — and returns the archive directory.
func genArchive(t *testing.T, churn float64) string {
	t.Helper()
	topo := astopo.Generate(astopo.DefaultParams(7))
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 2),
		ChurnFlapsPerHour: churn,
		Seed:              7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.GenerateArchive(store, archiveStart, archiveStart.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunRepairedFeed runs the real command path over a repaired push
// feed: a replayed archive behind an SSE server with periodic forced
// disconnects, backfilled from the same archive directory. The -v
// counters must reach stderr and -n must bound the live run.
func TestRunRepairedFeed(t *testing.T) {
	dir := genArchive(t, 0)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	feed := &rislive.Server{KeepAlive: 100 * time.Millisecond, BufferSize: 1 << 16}
	hs := httptest.NewServer(feed)
	defer hs.Close()
	go func() {
		// One paced pass over the archive with an early forced
		// disconnect, so the repair path runs inside the -n window;
		// afterwards a synthetic heartbeat trickle keeps feed time
		// advancing, guaranteeing the client can always close a gap
		// and the -n bound is always reachable.
		for feed.Stats().Subscribers == 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		rs := core.NewStream(ctx, &core.Directory{Dir: dir}, core.Filters{})
		n := 0
		last := archiveStart
		for ctx.Err() == nil {
			rec, elem, err := rs.NextElem()
			if err != nil {
				break
			}
			feed.Publish(rec.Project, rec.Collector, elem)
			last = elem.Timestamp
			if n++; n == 100 {
				feed.DisconnectClients()
			}
			time.Sleep(100 * time.Microsecond)
		}
		rs.Close()
		hb := core.Elem{Type: core.ElemAnnouncement, Timestamp: last}
		for ctx.Err() == nil {
			hb.Timestamp = hb.Timestamp.Add(time.Second)
			feed.Publish("ris", "rrc00", &hb)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	cursor := filepath.Join(t.TempDir(), "cursor.json")
	var out, errb bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-ris-live", hs.URL, "-repair", "-d", dir,
			"-repair-cursor", cursor, "-repair-concurrency", "2",
			"-metrics-addr", "127.0.0.1:0",
			"-m", "-v", "-n", "500",
		}, &out, &errb)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v (stderr: %s)", err, errb.String())
		}
	case <-time.After(80 * time.Second):
		t.Fatalf("run did not reach the -n bound (stdout %d bytes, stderr: %s)",
			out.Len(), errb.String())
	}
	if lines := strings.Count(out.String(), "\n"); lines != 500 {
		t.Fatalf("printed %d lines, want 500 (-n bound)", lines)
	}
	if !strings.Contains(errb.String(), "bgpreader: source rislive+directory") {
		t.Errorf("verbose header missing composite source name: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "source stats: live=") {
		t.Errorf("completeness counters missing from -v output: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "repairs-abandoned=") {
		t.Errorf("repair pipeline counters missing from -v output: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "bgpreader: pipeline: ") ||
		!strings.Contains(errb.String(), "elems=") {
		t.Errorf("registry pipeline totals missing from -v output: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "bgpreader: ops plane on http://127.0.0.1:") {
		t.Errorf("-metrics-addr bind line missing from -v output: %s", errb.String())
	}
	cb, err := os.ReadFile(cursor)
	if err != nil {
		t.Fatalf("-repair-cursor wrote no cursor: %v", err)
	}
	if !strings.Contains(string(cb), `"watermark"`) {
		t.Errorf("cursor file missing watermark: %s", cb)
	}
}
