package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
)

// writeDumpFile writes a gzip'd updates dump of n records to dir and
// returns its meta, starting at ts with a 5-minute period.
func writeDumpFile(t *testing.T, dir, collector string, ts int64, n int) archive.DumpMeta {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%s.%d.gz", collector, ts))
	if err := os.WriteFile(path, buildDump(t, n, true), 0o644); err != nil {
		t.Fatal(err)
	}
	return archive.DumpMeta{Project: "ris", Collector: collector, Type: DumpUpdates,
		Time: time.Unix(ts, 0), Duration: 5 * time.Minute, URL: path}
}

// prefetchWorkersParked reports whether every live decode worker is
// blocked in a select (a full readahead queue, or a semaphore slot)
// rather than decoding or not yet started, judged from the goroutine
// dump: a worker is any goroutine created by launchThrough. No
// live worker counts as parked; a goroutine whose stack the dump
// cannot show might be a worker, so it does not.
func prefetchWorkersParked() bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "stack unavailable") {
			return false
		}
		if !strings.Contains(g, "core.(*prefetchPipeline).launchThrough") {
			continue
		}
		header, _, _ := strings.Cut(g, "\n")
		if !strings.Contains(header, "[select") && !strings.Contains(header, "[chan send") {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(deadline time.Duration, cond func() bool) bool {
	end := time.Now().Add(deadline)
	for !cond() {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestPrefetchDefaultReadaheadBound pins the memory bound of the
// default readahead: a decode worker nobody consumes from parks with
// at most two batches decoded, one queued and one in its hand.
func TestPrefetchDefaultReadaheadBound(t *testing.T) {
	meta := writeDumpFile(t, t.TempDir(), "rrc00", 1000, 1500)
	before := metPrefetchReadahead.Value()
	p := &prefetchPipeline{sem: make(chan struct{}, 2), halt: make(chan struct{})}
	p.source(newDumpSource(context.Background(), nil, meta, nil))
	p.launchThrough(0)
	if !waitFor(5*time.Second, prefetchWorkersParked) {
		t.Fatal("decode worker never parked")
	}
	if got := metPrefetchReadahead.Value() - before; got > 2*prefetchBatchSize {
		t.Errorf("parked worker holds %d decoded records, want <= %d", got, 2*prefetchBatchSize)
	}
	close(p.halt)
	if !waitFor(2*time.Second, func() bool { return metPrefetchReadahead.Value() == before }) {
		t.Errorf("readahead gauge %d after stop, want %d", metPrefetchReadahead.Value(), before)
	}
}

// TestPrefetchEarlyCloseReleasesReadahead closes a wide parallel
// stream after one record: every decode worker must exit, every dump
// file must close, and the readahead and merge heap gauges must return
// to their values before the open, for workers parked on a full queue,
// workers launched ahead of files the merge has not joined, and
// workers that queued a whole small file and exited before Close.
func TestPrefetchEarlyCloseReleasesReadahead(t *testing.T) {
	dir := t.TempDir()
	var metas []archive.DumpMeta
	for _, ts := range []int64{1000, 100000} { // two overlap partitions
		for i := 0; i < 16; i++ {
			n := 400
			if i%4 == 0 {
				n = 10 // read to EOF before the merge reaches it
			}
			metas = append(metas, writeDumpFile(t, dir, fmt.Sprintf("rrc%02d", i), ts, n))
		}
	}
	baseGauge := metPrefetchReadahead.Value()
	baseHeap := metHeapSizeView.Value()
	baseOpen := openDumps.Load()
	baseGoroutines := runtime.NumGoroutine()

	s := NewStream(context.Background(), &SingleFiles{Metas: metas}, Filters{})
	s.SetDecodeWorkers(2)
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := metHeapSizeView.Value(); got != baseHeap {
		t.Errorf("after Close: merge heap gauge %d, want %d", got, baseHeap)
	}
	settled := waitFor(2*time.Second, func() bool {
		return metPrefetchReadahead.Value() == baseGauge && openDumps.Load() == baseOpen &&
			runtime.NumGoroutine() <= baseGoroutines
	})
	if !settled {
		t.Fatalf("after Close: readahead gauge %d (want %d), %d files open (want %d), goroutines %d (want <= %d)",
			metPrefetchReadahead.Value(), baseGauge, openDumps.Load(), baseOpen, runtime.NumGoroutine(), baseGoroutines)
	}
}
