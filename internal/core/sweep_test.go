package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/obsv"
)

// metHeapSizeView reads the merge package's heap-size gauge.
var metHeapSizeView = obsv.Default.Gauge("bgpstream_merge_heap_size", "")

// writeStampedFile writes a gzip'd updates dump declared as [start,
// start+dur] holding one record per stamp, and returns its meta.
func writeStampedFile(t *testing.T, dir, collector string, start, dur int64, stamps []uint32) archive.DumpMeta {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s.%d.gz", collector, start))
	if err := os.WriteFile(path, buildStampedDump(t, stamps, true), 0o644); err != nil {
		t.Fatal(err)
	}
	return archive.DumpMeta{Project: "ris", Collector: collector, Type: DumpUpdates,
		Time: time.Unix(start, 0), Duration: time.Duration(dur) * time.Second, URL: path}
}

// TestSweepOpenFilesBounded pins what the sweep merge holds: over 40
// abutting 5-minute files and the 15-minute files beside them (one
// §3.3.4 overlap partition of 54 files), the dump files open at once,
// the merge heap and the decoded-ahead records stay within the files
// live at the current record's time plus the prefetch lookahead, at
// every Next, for the sequential and the parallel pipeline.
func TestSweepOpenFilesBounded(t *testing.T) {
	const base = 1_000_000
	dir := t.TempDir()
	var metas []archive.DumpMeta
	total := 0
	for _, c := range []struct {
		collector string
		period    int64
		files     int
	}{{"rrc00", 300, 40}, {"rrc01", 900, 14}} {
		for i := 0; i < c.files; i++ {
			start := base + int64(i)*c.period
			var stamps []uint32
			for ts := start; ts < start+c.period; ts += 2 {
				stamps = append(stamps, uint32(ts))
			}
			total += len(stamps)
			metas = append(metas, writeStampedFile(t, dir, c.collector, start, c.period, stamps))
		}
	}
	live := func(ts int64) int64 {
		n := int64(0)
		for _, m := range metas {
			if start, end := m.Interval(); start-mergeSlack <= ts && ts <= end {
				n++
			}
		}
		return n
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			baseOpen, baseHeap, baseAhead := openDumps.Load(), metHeapSizeView.Value(), metPrefetchReadahead.Value()
			s := NewStream(context.Background(), &SingleFiles{Metas: metas}, Filters{})
			s.SetDecodeWorkers(workers)
			defer s.Close()
			l := int64(lookahead(workers))
			var maxOpen, maxHeap, maxAhead int64
			n := 0
			for {
				rec, err := s.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				n++
				open := openDumps.Load() - baseOpen
				heap := metHeapSizeView.Value() - baseHeap
				ahead := metPrefetchReadahead.Value() - baseAhead
				maxOpen, maxHeap, maxAhead = max(maxOpen, open), max(maxHeap, heap), max(maxAhead, ahead)
				bound := live(rec.Time().Unix()) + l
				if open > bound || heap > bound || ahead > 2*prefetchBatchSize*bound {
					t.Fatalf("record %d at %d: %d files open, heap %d, %d records decoded ahead; want each within %d files (%d live + lookahead %d)",
						n, rec.Time().Unix(), open, heap, ahead, bound, bound-l, l)
				}
			}
			if n != total {
				t.Errorf("merged %d records, want %d", n, total)
			}
			t.Logf("%d files: at most %d open, heap %d, %d records decoded ahead", len(metas), maxOpen, maxHeap, maxAhead)
			if open, heap := openDumps.Load()-baseOpen, metHeapSizeView.Value()-baseHeap; open != 0 || heap != 0 {
				t.Errorf("after EOF: %d files open, heap %+d; want 0, +0", open, heap)
			}
		})
	}
}

// TestSweepOutOfIntervalRecords: records stamped outside their file's
// declared interval are delivered, never dropped. Within mergeSlack
// before the start, or after the end (across what was an overlap
// partition cut), they come out in time order; stamped earlier than
// the slack allows, they come out late and are counted.
func TestSweepOutOfIntervalRecords(t *testing.T) {
	cases := []struct {
		name          string
		a, b          []uint32 // stamps of A = [1000,1300] and B = [bStart, bStart+300]
		bStart        int64
		outOfInterval uint64
	}{
		{"early within slack", []uint32{1000, 1100, 1200, 1260, 1290}, []uint32{1250, 1300, 1400}, 1300, 0},
		{"early beyond slack", []uint32{1000, 1100, 1200, 1260, 1290}, []uint32{1100, 1300, 1400}, 1300, 1},
		{"late across the old partition cut", []uint32{1000, 1200, 1500}, []uint32{1400, 1450, 1550}, 1400, 0},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				dir := t.TempDir()
				metas := []archive.DumpMeta{
					writeStampedFile(t, dir, "rrc00", 1000, 300, c.a),
					writeStampedFile(t, dir, "rrc01", c.bStart, 300, c.b),
				}
				before := metMergeOutOfInterval.Value()
				s := NewStream(context.Background(), &SingleFiles{Metas: metas}, Filters{})
				s.SetDecodeWorkers(workers)
				defer s.Close()
				var got []int64
				for _, ts := range collectTimestamps(t, s) {
					got = append(got, ts[1])
				}
				var want []int64
				for _, ts := range append(slices.Clone(c.a), c.b...) {
					want = append(want, int64(ts))
				}
				slices.Sort(want)
				if counted := metMergeOutOfInterval.Value() - before; counted != c.outOfInterval {
					t.Errorf("out-of-interval count %d, want %d (order %v)", counted, c.outOfInterval, got)
				}
				if c.outOfInterval == 0 && !slices.Equal(got, want) {
					t.Errorf("order %v, want %v", got, want)
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Errorf("delivered %v, want %v", got, want)
				}
			})
		}
	}
}

// TestDumpSourceCloseReleasesArena: a finished or abandoned dump
// source drops its record arena, whose free records would pin their
// chunk and the reader's body chunks behind them.
func TestDumpSourceCloseReleasesArena(t *testing.T) {
	meta := writeDumpFile(t, t.TempDir(), "rrc00", 1000, 100)
	ds := newDumpSource(context.Background(), nil, meta, nil)
	for {
		if _, err := ds.Next(); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
	}
	if ds.recArena != nil {
		t.Errorf("arena of %d records kept after EOF", len(ds.recArena))
	}
	ds = newDumpSource(context.Background(), nil, meta, nil)
	if _, err := ds.Next(); err != nil {
		t.Fatal(err)
	}
	ds.close()
	if ds.recArena != nil {
		t.Errorf("arena of %d records kept after close", len(ds.recArena))
	}
}
