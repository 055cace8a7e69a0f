package bgpstream_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
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

	bgpstream "github.com/bgpstream-go/bgpstream"
)

// generateArchive synthesises a small two-collector archive and
// returns its directory.
func generateArchive(t *testing.T, seed int64, hours int) (string, time.Time) {
	t.Helper()
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	topo := astopo.Generate(astopo.DefaultParams(seed))
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 4),
		ChurnFlapsPerHour: 30,
		Seed:              seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.GenerateArchive(store, start, start.Add(time.Duration(hours)*time.Hour)); err != nil {
		t.Fatal(err)
	}
	return dir, start
}

// TestOpenPullEndToEnd drives the unified front end over a pull source
// (the directory transport from the registry) with a filter string,
// checking the filters bite and the range-over-func iterator works.
func TestOpenPullEndToEnd(t *testing.T) {
	dir, start := generateArchive(t, 14, 1)

	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}),
		bgpstream.WithFilterString("project ris and type ribs and elemtype ribs"),
		bgpstream.WithInterval(start, start.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The stream reports its canonical query.
	if got := s.Filters().String(); got != "project ris and type ribs and elemtype ribs" {
		t.Errorf("canonical filter = %q", got)
	}

	n := 0
	for rec, elem := range s.Elems() {
		if rec.Project != "ris" || elem.Type != bgpstream.ElemRIB {
			t.Fatalf("filter leak: %s %s", rec.Project, elem.Type)
		}
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no RIB elems through Open")
	}

	// The same stream built from a DataInterface instance and a Filters
	// value yields the same elem count (the named-source and instance
	// paths agree).
	filters := bgpstream.Filters{
		Projects:  []string{"ris"},
		DumpTypes: []bgpstream.DumpType{bgpstream.DumpRIB},
		ElemTypes: []bgpstream.ElemType{bgpstream.ElemRIB},
		Start:     start,
		End:       start.Add(time.Hour),
	}
	inst, err := bgpstream.Open(context.Background(),
		bgpstream.WithSourceInstance(&bgpstream.Directory{Dir: dir}),
		bgpstream.WithFilters(filters))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	m := 0
	for range inst.Elems() {
		m++
	}
	if err := inst.Err(); err != nil {
		t.Fatal(err)
	}
	if m != n {
		t.Fatalf("instance source saw %d elems, named source saw %d", m, n)
	}
}

// TestOpenCSVSource reaches the csvfile source through the registry.
func TestOpenCSVSource(t *testing.T) {
	dir, _ := generateArchive(t, 15, 1)
	store := &archive.Store{Root: dir}
	metas, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("no dumps scanned")
	}
	csvPath := filepath.Join(t.TempDir(), "index.csv")
	var sb strings.Builder
	sb.WriteString("# test index\n")
	for _, m := range metas {
		fmt.Fprintf(&sb, "%s,%s,%s,%d,%d,%s\n", m.Project, m.Collector, string(m.Type),
			m.Time.Unix(), int64(m.Duration/time.Second), m.URL)
	}
	if err := os.WriteFile(csvPath, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("csvfile", bgpstream.SourceOptions{"path": csvPath}),
		bgpstream.WithFilterString("type updates"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for rec := range s.Records() {
		if rec.DumpType != bgpstream.DumpUpdates {
			t.Fatalf("filter leak: %s", rec.DumpType)
		}
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records through csvfile source")
	}
}

// TestOpenPushEndToEnd drives the unified front end over the push
// rislive source: an in-process SSE server replays a simulated
// archive, Open consumes it through the same registry and filter
// string surface as the pull path.
func TestOpenPushEndToEnd(t *testing.T) {
	dir, _ := generateArchive(t, 16, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	feed := &rislive.Server{KeepAlive: 100 * time.Millisecond}
	hs := httptest.NewServer(feed)
	defer hs.Close()
	go func() {
		for ctx.Err() == nil {
			rs, err := bgpstream.Open(ctx,
				bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}))
			if err != nil {
				t.Error(err)
				return
			}
			rislive.Replay(ctx, rs, feed, rislive.ReplayOptions{})
			rs.Close()
		}
	}()

	s, err := bgpstream.Open(ctx,
		bgpstream.WithSource("rislive", bgpstream.SourceOptions{"url": hs.URL}),
		bgpstream.WithFilterString("elemtype announcements"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	n := 0
	for _, elem := range s.Elems() {
		if elem.Type != bgpstream.ElemAnnouncement {
			t.Fatalf("filter leak: %s through push source", elem.Type)
		}
		if n++; n >= 500 {
			break
		}
	}
	if n < 500 {
		t.Fatalf("only %d elems from push source (err: %v)", n, s.Err())
	}
}

// TestOpenSourceInstance exercises the adapter path: an
// already-constructed DataInterface flows through WithSourceInstance.
func TestOpenSourceInstance(t *testing.T) {
	dir, _ := generateArchive(t, 17, 1)
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSourceInstance(&bgpstream.Directory{Dir: dir}),
		bgpstream.WithFilterString("type updates"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for range s.Records() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records through WithSourceInstance")
	}
}

// TestSourceRegistry checks the registry listing and its error paths.
func TestSourceRegistry(t *testing.T) {
	infos := bgpstream.Sources()
	names := make([]string, len(infos))
	for i, info := range infos {
		names[i] = info.Name
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"broker", "csvfile", "directory", "rislive", "singlefile"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Sources() missing %q: %v", want, names)
		}
	}
	if !sortedStrings(names) {
		t.Errorf("Sources() not sorted: %v", names)
	}

	if _, err := bgpstream.OpenSource("nope", nil); err == nil ||
		!strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown source error = %v", err)
	}
	if _, err := bgpstream.OpenSource("directory", bgpstream.SourceOptions{"wrong": "x"}); err == nil ||
		!strings.Contains(err.Error(), `no option "wrong"`) {
		t.Errorf("unknown option error = %v", err)
	}
	if _, err := bgpstream.OpenSource("directory", nil); err == nil ||
		!strings.Contains(err.Error(), `requires option "path"`) {
		t.Errorf("missing required option error = %v", err)
	}
	if _, err := bgpstream.OpenSource("rislive", bgpstream.SourceOptions{"url": "http://x", "stale": "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bad duration") {
		t.Errorf("bad duration error = %v", err)
	}
	if _, err := bgpstream.OpenSource("singlefile", bgpstream.SourceOptions{}); err == nil {
		t.Error("singlefile without files accepted")
	}

	// Open without a source is an error, as is a bad filter string.
	if _, err := bgpstream.Open(context.Background()); err == nil {
		t.Error("Open without source accepted")
	}
	if _, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": "/tmp"}),
		bgpstream.WithFilterString("collectr rrc00")); err == nil {
		t.Error("Open with bad filter string accepted")
	}
}

// TestRegisterCustomSource registers a synthetic push source and opens
// it through the same named path as the built-ins.
func TestRegisterCustomSource(t *testing.T) {
	bgpstream.RegisterSource(bgpstream.SourceInfo{
		Name: "test-synthetic", Kind: "push",
		Options: []bgpstream.SourceOption{{Name: "n", Description: "elems to emit"}},
	}, func(opts bgpstream.SourceOptions) (bgpstream.Source, error) {
		return bgpstream.PushSource(&syntheticSource{n: 3}), nil
	})
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("test-synthetic", bgpstream.SourceOptions{"n": "3"}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for range s.Elems() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("custom source yielded %d elems, want 3", n)
	}
}

// syntheticSource is a minimal ElemSource for registry tests.
type syntheticSource struct{ n, i int }

func (s *syntheticSource) NextElem(ctx context.Context) (*bgpstream.Record, *bgpstream.Elem, error) {
	if s.i >= s.n {
		return nil, nil, io.EOF
	}
	s.i++
	ts := time.Date(2016, 3, 1, 0, 0, s.i, 0, time.UTC)
	elems := []core.Elem{{Type: core.ElemAnnouncement, Timestamp: ts}}
	rec := core.NewElemRecord("test", "synth", core.DumpUpdates, ts, elems)
	return rec, &elems[0], nil
}

func (s *syntheticSource) Close() error { return nil }

func sortedStrings(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// TestOpenSingleFileWithInterval regresses the interval/meta-filter
// interaction: a singlefile source has no nominal dump time (zero
// Time), so it must survive interval meta-filtering and be filtered
// per record instead.
func TestOpenSingleFileWithInterval(t *testing.T) {
	dir, start := generateArchive(t, 18, 1)
	store := &archive.Store{Root: dir}
	metas, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var updURL string
	for _, m := range metas {
		if m.Type == archive.DumpUpdates {
			updURL = m.URL
			break
		}
	}
	if updURL == "" {
		t.Fatal("no updates dump in archive")
	}
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("singlefile", bgpstream.SourceOptions{"upd-file": updURL}),
		bgpstream.WithInterval(start, start.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for rec := range s.Records() {
		if rec.Project != "singlefile" || rec.Collector != "singlefile" {
			t.Fatalf("annotations = %s/%s", rec.Project, rec.Collector)
		}
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("singlefile source with interval yielded nothing")
	}

	// With an explicit nominal time outside the interval, the dump is
	// meta-filtered away again.
	s2, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("singlefile", bgpstream.SourceOptions{
			"upd-file": updURL,
			"time":     "100", "duration": "5m", // ends long before start
		}),
		bgpstream.WithInterval(start, start.Add(time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for range s2.Records() {
		t.Fatal("out-of-interval singlefile dump yielded records")
	}
	if err := s2.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRepairedEndToEnd drives the gap-repaired composite through
// the registry: a push feed is force-disconnected while replaying an
// archive exactly once, and the "repaired" source — rislive live half,
// directory backfill half, options forwarded through the live.*/
// backfill.* prefixes — must deliver the exact elem multiset of the
// uninterrupted replay, with the repair counters visible on the
// stream.
func TestOpenRepairedEndToEnd(t *testing.T) {
	dir, _ := generateArchive(t, 19, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Reference: the elem multiset of an uninterrupted archive read.
	refStream, err := bgpstream.Open(ctx,
		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}))
	if err != nil {
		t.Fatal(err)
	}
	reference := make(map[string]int)
	refN := 0
	for rec, elem := range refStream.Elems() {
		b, err := json.Marshal(rislive.EncodeElem(rec.Project, rec.Collector, elem))
		if err != nil {
			t.Fatal(err)
		}
		reference[string(b)]++
		refN++
	}
	if err := refStream.Err(); err != nil {
		t.Fatal(err)
	}
	refStream.Close()
	if refN == 0 {
		t.Fatal("empty reference run")
	}

	feed := &rislive.Server{KeepAlive: 100 * time.Millisecond, BufferSize: 1 << 17}
	hs := httptest.NewServer(feed)
	defer hs.Close()
	go func() {
		// One pass over the archive with a forced disconnect at 40%:
		// completeness must come from the repair path. Publishing
		// starts only once the consumer is subscribed — elems
		// published before the first subscription are not a repairable
		// loss (the client has no watermark yet), they are simply
		// before the stream began.
		for feed.Stats().Subscribers == 0 && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		rs, err := bgpstream.Open(ctx,
			bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}))
		if err != nil {
			t.Error(err)
			return
		}
		defer rs.Close()
		n := 0
		for ctx.Err() == nil {
			rec, elem, err := rs.NextElem()
			if err != nil {
				return
			}
			feed.Publish(rec.Project, rec.Collector, elem)
			if n++; n == 2*refN/5 {
				feed.DisconnectClients()
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	s, err := bgpstream.Open(ctx,
		bgpstream.WithSource("repaired", bgpstream.SourceOptions{
			"backfill":      "directory",
			"backfill.path": dir,
			"live.url":      hs.URL,
			"live.backoff":  "20ms", // reconnect fast relative to the replay pace
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	got := make(map[string]int)
	n := 0
	for rec, elem := range s.Elems() {
		b, err := json.Marshal(rislive.EncodeElem(rec.Project, rec.Collector, elem))
		if err != nil {
			t.Fatal(err)
		}
		got[string(b)]++
		if got[string(b)] > reference[string(b)] {
			t.Fatalf("duplicate elem at %d: %s", n, b)
		}
		if n++; n >= refN {
			break
		}
	}
	if n < refN {
		t.Fatalf("only %d/%d elems through repaired source (err: %v, stats: %+v, feed: %+v)",
			n, refN, s.Err(), s.SourceStats(), feed.Stats())
	}
	// refN elems received and none in excess of the reference count:
	// the multisets are identical — no duplicates, no holes.
	st := s.SourceStats()
	if st.LiveElems == 0 {
		t.Fatalf("SourceStats not wired through the repaired stream: %+v", st)
	}
	if st.Gaps < 1 || st.Repairs < 1 {
		t.Fatalf("forced disconnect repaired without gap accounting: %+v", st)
	}
}

// TestOpenWithRepairOption exercises the WithRepair form over
// WithSource, plus the composite error paths: repairing a pull source
// is rejected, and composite sub-options are validated.
func TestOpenWithRepairOption(t *testing.T) {
	dir, _ := generateArchive(t, 20, 1)

	if _, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}),
		bgpstream.WithRepair("directory", bgpstream.SourceOptions{"path": dir})); err == nil ||
		!strings.Contains(err.Error(), "push") {
		t.Errorf("repairing a pull source accepted (err = %v)", err)
	}

	// Repair tuning without a repair source would be silently dead
	// configuration (a cursor path that never persists); reject it.
	if _, err := bgpstream.Open(context.Background(),
		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}),
		bgpstream.WithRepairOptions(bgpstream.RepairOptions{Concurrency: 2})); err == nil ||
		!strings.Contains(err.Error(), "WithRepair") {
		t.Errorf("WithRepairOptions without WithRepair accepted (err = %v)", err)
	}

	if _, err := bgpstream.OpenSource("repaired", bgpstream.SourceOptions{
		"backfill": "directory", "backfill.path": dir, "live.url": "http://x", "bogus": "y",
	}); err == nil || !strings.Contains(err.Error(), `no option "bogus"`) {
		t.Errorf("unknown composite option error = %v", err)
	}
	if _, err := bgpstream.OpenSource("repaired", bgpstream.SourceOptions{
		"backfill": "directory", "backfill.bogus": dir, "live.url": "http://x",
	}); err == nil || !strings.Contains(err.Error(), `no option "bogus"`) {
		t.Errorf("unknown forwarded option error = %v", err)
	}
	if _, err := bgpstream.OpenSource("repaired", bgpstream.SourceOptions{
		"live.url": "http://x",
	}); err == nil || !strings.Contains(err.Error(), `requires option "backfill"`) {
		t.Errorf("missing backfill error = %v", err)
	}

	// The WithRepair happy path over an in-process feed: spot-check
	// that elems flow and stats surface.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	feed := &rislive.Server{KeepAlive: 100 * time.Millisecond}
	hs := httptest.NewServer(feed)
	defer hs.Close()
	go func() {
		for ctx.Err() == nil {
			rs, err := bgpstream.Open(ctx,
				bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir}))
			if err != nil {
				t.Error(err)
				return
			}
			rislive.Replay(ctx, rs, feed, rislive.ReplayOptions{})
			rs.Close()
		}
	}()
	s, err := bgpstream.Open(ctx,
		bgpstream.WithSource("rislive", bgpstream.SourceOptions{"url": hs.URL}),
		bgpstream.WithRepair("directory", bgpstream.SourceOptions{"path": dir}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for range s.Elems() {
		if n++; n >= 200 {
			break
		}
	}
	if n < 200 {
		t.Fatalf("only %d elems through WithRepair (err: %v)", n, s.Err())
	}
	if st := s.SourceStats(); st.LiveElems == 0 {
		t.Fatalf("SourceStats empty through WithRepair: %+v", st)
	}
}
