// Property test of the parallel ingest pipeline: for randomized
// overlapping archives, the prefetch/decode pipeline must yield the
// exact record sequence of a workers=1 (sequential, in-line decode)
// run — same statuses, timestamps, annotations and body bytes in the
// same order. Decode timing must never leak into the §3.3.4 merge
// order.
package bgpstream_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/collector"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// pipelineRecord is the comparable projection of one stream record.
type pipelineRecord struct {
	project   string
	collector string
	dumpType  core.DumpType
	dumpTime  time.Time
	status    core.RecordStatus
	position  core.DumpPosition
	time      time.Time
	body      []byte
}

// samePipelineRecord reports whether two projections are identical.
func samePipelineRecord(a, b pipelineRecord) bool {
	return a.project == b.project && a.collector == b.collector &&
		a.dumpType == b.dumpType && a.dumpTime.Equal(b.dumpTime) &&
		a.status == b.status && a.position == b.position &&
		a.time.Equal(b.time) && bytes.Equal(a.body, b.body)
}

// collectRecords drains a directory stream configured with the given
// pipeline parameters into comparable projections.
func collectRecords(t *testing.T, dir string, workers, readahead int) []pipelineRecord {
	t.Helper()
	s := core.NewStream(context.Background(), &core.Directory{Dir: dir}, core.Filters{})
	s.SetDecodeWorkers(workers)
	s.SetReadahead(readahead)
	return drainRecords(t, s)
}

// drainRecords reads s to EOF into comparable projections and closes
// it.
func drainRecords(t *testing.T, s *core.Stream) []pipelineRecord {
	t.Helper()
	defer s.Close()
	var out []pipelineRecord
	for {
		rec, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, pipelineRecord{
			project:   rec.Project,
			collector: rec.Collector,
			dumpType:  rec.DumpType,
			dumpTime:  rec.DumpTime,
			status:    rec.Status,
			position:  rec.Position,
			time:      rec.Time(),
			body:      append([]byte(nil), rec.MRT.Body...),
		})
	}
}

// generateRandomArchive builds a simulated multi-collector archive
// whose dump files overlap in time, with randomized topology, churn
// and duration.
func generateRandomArchive(t *testing.T, rng *rand.Rand) string {
	t.Helper()
	dir := t.TempDir()
	p := astopo.DefaultParams(3)
	p.StubCount = 40 + rng.Intn(60)
	topo := astopo.Generate(p)
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 2+rng.Intn(5)),
		ChurnFlapsPerHour: float64(20 + rng.Intn(80)),
		Seed:              rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	dur := time.Duration(30+rng.Intn(90)) * time.Minute
	if _, err := sim.GenerateArchive(store, start, start.Add(dur)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// truncateOneDump corrupts one dump file in place (body cut short),
// so the invalid-record path flows through the pipeline too.
func truncateOneDump(t *testing.T, dir string, rng *rand.Rand) {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) == 0 {
		t.Fatalf("no dump files to corrupt (err=%v)", err)
	}
	victim := files[rng.Intn(len(files))]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 {
		return
	}
	if err := os.WriteFile(victim, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParallelPipelineMatchesSequential is the ordering property test
// of ISSUE 5: across randomized overlapping archives — including one
// with a mid-file-corrupted dump — every parallel configuration
// (worker counts above, below and at partition width; readahead down
// to a single batch) yields a record sequence identical to workers=1.
func TestParallelPipelineMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(20160301))
	for iter := 0; iter < 3; iter++ {
		t.Run(fmt.Sprintf("archive%d", iter), func(t *testing.T) {
			dir := generateRandomArchive(t, rng)
			if iter == 1 {
				truncateOneDump(t, dir, rng)
			}
			want := collectRecords(t, dir, 1, 0)
			if len(want) == 0 {
				t.Fatal("sequential run produced no records")
			}
			configs := []struct{ workers, readahead int }{
				{2, 64},  // fewer workers than files: semaphore contention
				{4, 0},   // the default-readahead parallel shape
				{16, 64}, // more workers than files
				{3, 1},   // single-batch readahead: constant backpressure
			}
			for _, cfg := range configs {
				got := collectRecords(t, dir, cfg.workers, cfg.readahead)
				if len(got) != len(want) {
					t.Fatalf("workers=%d readahead=%d: %d records, want %d",
						cfg.workers, cfg.readahead, len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if !samePipelineRecord(g, w) {
						t.Fatalf("workers=%d readahead=%d: record %d differs:\n got %+v\nwant %+v",
							cfg.workers, cfg.readahead, i, g, w)
					}
				}
			}
		})
	}
}

// TestParallelPipelineEarlyClose closes a parallel stream mid-read:
// the prefetch workers must wind down (closing their dump files)
// instead of blocking forever on their readahead queues.
func TestParallelPipelineEarlyClose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := generateRandomArchive(t, rng)
	s := core.NewStream(context.Background(), &core.Directory{Dir: dir}, core.Filters{})
	s.SetDecodeWorkers(4)
	s.SetReadahead(1) // tiny queues: workers are parked on sends
	for i := 0; i < 10; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second Close stays safe.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("Next after Close = %v, want io.EOF", err)
	}
}
