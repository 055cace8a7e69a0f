package bgpstream_test

import (
	"context"
	"maps"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/gaprepair"

	bgpstream "github.com/bgpstream-go/bgpstream"
)

// TestRegistryPullSourceReopens pins that a registry pull source is
// reopenable. A data interface is a single-use cursor, so every
// OpenStream must build a fresh one: a second stream over the same
// Source yields exactly the first stream's records, and gap repair,
// which reopens its backfill source once per loss window, gets the
// elems of every window, not only the first.
func TestRegistryPullSourceReopens(t *testing.T) {
	dir, _ := generateArchive(t, 21, 1)
	metas, err := (&archive.Store{Root: dir}).Scan()
	if err != nil {
		t.Fatal(err)
	}
	single := bgpstream.SourceOptions{}
	var upd archive.DumpMeta
	for _, m := range metas {
		if m.Collector != metas[0].Collector {
			continue
		}
		switch {
		case m.Type == archive.DumpRIB && single["rib-file"] == "":
			single["rib-file"] = m.URL
		case m.Type == archive.DumpUpdates && single["upd-file"] == "":
			single["upd-file"], upd = m.URL, m
		}
	}
	if single["rib-file"] == "" || single["upd-file"] == "" {
		t.Fatal("archive lacks a RIB and an updates dump of one collector")
	}
	// Two disjoint loss windows, both inside the singlefile updates
	// dump.
	mid := upd.Time.Add(upd.Duration / 2)
	windows := [][2]time.Time{
		{upd.Time, mid},
		{mid.Add(time.Second), upd.Time.Add(upd.Duration)},
	}
	sources := []struct {
		name string
		opts bgpstream.SourceOptions
	}{
		{"directory", bgpstream.SourceOptions{"path": dir}},
		{"csvfile", bgpstream.SourceOptions{"path": writeCSVIndex(t, metas)}},
		{"singlefile", single},
	}
	for _, src := range sources {
		for _, workers := range []string{"", "2"} {
			t.Run(src.name+"/decode-workers="+workers, func(t *testing.T) {
				opts := maps.Clone(src.opts)
				if workers != "" {
					opts["decode-workers"] = workers
				}
				s, err := bgpstream.OpenSource(src.name, opts)
				if err != nil {
					t.Fatal(err)
				}
				first := drainRecords(t, openStream(t, s, bgpstream.Filters{}))
				second := drainRecords(t, openStream(t, s, bgpstream.Filters{}))
				if len(first) == 0 {
					t.Fatal("first open yielded no records")
				}
				if len(second) != len(first) {
					t.Fatalf("second open yielded %d records, first %d", len(second), len(first))
				}
				for i := range first {
					if !samePipelineRecord(second[i], first[i]) {
						t.Fatalf("record %d differs between opens:\n got %+v\nwant %+v", i, second[i], first[i])
					}
				}
				for _, w := range windows {
					// The expected elems come from a source opened for
					// this window alone.
					fresh, err := bgpstream.OpenSource(src.name, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := countElems(t, openStream(t, fresh, bgpstream.Filters{Start: w[0], End: w[1]}))
					if want == 0 {
						t.Fatalf("window %v holds no elems", w)
					}
					bs, err := gaprepair.SourceBackfiller{Source: s}.Backfill(context.Background(), w[0], w[1])
					if err != nil {
						t.Fatal(err)
					}
					if got := countElems(t, bs); got != want {
						t.Errorf("backfill of window %v: %d elems, want %d", w, got, want)
					}
				}
			})
		}
	}
}

// TestOpenPipelineOptionPrecedence pins how WithDecodeWorkers and
// WithReadahead combine with a registry source's own pipeline options:
// an explicit Open option wins, and an unset one leaves the registry
// value alone.
func TestOpenPipelineOptionPrecedence(t *testing.T) {
	// GOMAXPROCS selects the worker count whenever decode-workers is
	// lost, so pin it above 1 for that loss to show.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	dir, _ := generateArchive(t, 22, 1)
	cases := []struct {
		name        string
		opt         bgpstream.Option
		wantWorkers bool
	}{
		{"readahead only", bgpstream.WithReadahead(128), false},
		{"decode workers", bgpstream.WithDecodeWorkers(4), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !waitUntil(5*time.Second, func() bool { return decodeWorkerGoroutines() == 0 }) {
				t.Fatal("decode workers of an earlier stream still running")
			}
			s, err := bgpstream.Open(context.Background(),
				bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": dir, "decode-workers": "1"}),
				tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Next(); err != nil {
				t.Fatal(err)
			}
			// The first Next primes every file of the first overlap
			// partition: a parallel stream has launched their workers,
			// and those of the multi-batch RIB dumps are still running.
			running := decodeWorkerGoroutines() > 0
			if tc.wantWorkers && !running {
				running = waitUntil(5*time.Second, func() bool { return decodeWorkerGoroutines() > 0 })
			}
			if running != tc.wantWorkers {
				t.Fatalf("decode workers running = %v, want %v", running, tc.wantWorkers)
			}
		})
	}
}

// openStream opens src with f, failing the test on error.
func openStream(t *testing.T, src bgpstream.Source, f bgpstream.Filters) *core.Stream {
	t.Helper()
	s, err := src.OpenStream(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countElems drains s elem by elem and closes it.
func countElems(t *testing.T, s *core.Stream) int {
	t.Helper()
	defer s.Close()
	n := 0
	for range s.Elems() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// decodeWorkerGoroutines counts the goroutines running a prefetch
// decode worker.
func decodeWorkerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "core.(*prefetchSource).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitUntil polls cond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	end := time.Now().Add(d)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}
