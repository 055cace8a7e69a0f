// End-to-end fault-tolerance property test: a randomized multi-dump
// archive consumed through a fault-injecting proxy (connection resets
// at random offsets, truncations, 5xx/429 bursts, stalls, Range
// amnesia) must yield the exact record sequence of a fault-free run —
// same statuses, timestamps, annotations and body bytes in the same
// order — with the parallel ingest pipeline enabled. Faults may cost
// retries and resumes; they must never cost data.
package bgpstream_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
	"github.com/bgpstream-go/bgpstream/internal/resilience/faultproxy"
)

// proxiedMetas scans the on-disk archive and rewrites every dump URL
// to go through the given HTTP base URL instead of the local path.
func proxiedMetas(t *testing.T, dir, baseURL string) []archive.DumpMeta {
	t.Helper()
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) == 0 {
		t.Fatal("archive scan found no dumps")
	}
	for i := range metas {
		rel, err := filepath.Rel(dir, metas[i].URL)
		if err != nil {
			t.Fatal(err)
		}
		metas[i].URL = baseURL + "/" + filepath.ToSlash(rel)
	}
	return metas
}

// collectHTTPRecords drains a parallel-pipeline stream over the given
// metas into comparable projections.
func collectHTTPRecords(t *testing.T, metas []archive.DumpMeta, pol resilience.Policy, disableBreaker bool) []pipelineRecord {
	t.Helper()
	s := core.NewStream(context.Background(), &core.SingleFiles{Metas: metas}, core.Filters{})
	s.SetDecodeWorkers(4)
	s.SetFetchPolicy(pol)
	if disableBreaker {
		s.SetBreakerThreshold(-1)
	}
	return drainRecords(t, s)
}

// TestFaultToleranceSequenceIdentity is the tentpole acceptance test:
// randomized faults on every network edge, byte-identical output.
func TestFaultToleranceSequenceIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dump fault-injection property test")
	}
	rng := rand.New(rand.NewSource(7))
	dir := generateRandomArchive(t, rng)
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(&archive.Server{Store: store})
	defer srv.Close()
	cleanMetas := proxiedMetas(t, dir, srv.URL)
	want := collectHTTPRecords(t, cleanMetas, resilience.Policy{}, false)
	if len(want) == 0 {
		t.Fatal("clean run produced no records")
	}
	for _, rec := range want {
		if rec.status != core.StatusValid {
			t.Fatalf("clean run produced non-valid record: %+v", rec)
		}
	}

	for _, seed := range []uint64{1, 2, 3} {
		proxy := faultproxy.New(&archive.Server{Store: store})
		// Only retryable fault kinds: permanent statuses (404) would
		// legitimately change the output and are pinned separately in
		// TestFaultTolerance404. Stalls stay short so the run does too.
		proxy.Randomize(seed, faultproxy.Random{
			StatusProb:      0.10,
			ResetProb:       0.15,
			TruncateProb:    0.10,
			IgnoreRangeProb: 0.05,
			StallProb:       0.05,
			Statuses:        []int{502, 503, 429},
			MaxStall:        5 * time.Millisecond,
		})
		fsrv := httptest.NewServer(proxy)
		// A generous budget (and no breaker: random faults on a single
		// test host would trip it spuriously) so the property under
		// test is sequence identity, not budget tuning.
		pol := resilience.Policy{MaxAttempts: 10, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
		got := collectHTTPRecords(t, proxiedMetas(t, dir, fsrv.URL), pol, true)
		// A fault-free run costs one request per dump; every retry and
		// resume is an extra one.
		extra := proxy.TotalRequests() - len(cleanMetas)
		fsrv.Close()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d records, want %d", seed, len(got), len(want))
		}
		for i := range want {
			w, g := want[i], got[i]
			if !samePipelineRecord(g, w) {
				t.Fatalf("seed %d: record %d differs:\n got %+v\nwant %+v", seed, i, g, w)
			}
		}
		// Zero extra requests means no fault was actually recovered
		// from and the property was vacuous.
		if extra <= 0 {
			t.Fatalf("seed %d: no faults injected (requests=%d, dumps=%d)",
				seed, proxy.TotalRequests(), len(cleanMetas))
		}
	}
}

// TestFaultTolerance404 pins the permanent-failure contract end to
// end: a missing dump costs exactly one request and degrades to
// exactly one corrupted-dump record amid otherwise valid data.
func TestFaultTolerance404(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dir := generateRandomArchive(t, rng)
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	proxy := faultproxy.New(&archive.Server{Store: store})
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	metas := proxiedMetas(t, dir, srv.URL)
	missing := metas[0]
	missing.URL = srv.URL + "/ris/gone/updates.20160301.0000.gz"
	metas = append([]archive.DumpMeta{missing}, metas...)

	got := collectHTTPRecords(t, metas,
		resilience.Policy{MaxAttempts: 5, Backoff: time.Millisecond}, false)
	var corrupted, valid int
	for _, rec := range got {
		switch rec.status {
		case core.StatusCorruptedDump:
			corrupted++
		case core.StatusValid:
			valid++
		}
	}
	if corrupted != 1 || valid == 0 {
		t.Fatalf("corrupted=%d valid=%d, want exactly 1 corrupted-dump record among valid ones", corrupted, valid)
	}
	if n := proxy.Requests("/ris/gone/updates.20160301.0000.gz"); n != 1 {
		t.Fatalf("404 dump cost %d requests, want exactly 1 (no retry storm)", n)
	}
}
