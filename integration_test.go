package bgpstream_test

import (
	"context"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/broker"
	"github.com/bgpstream-go/bgpstream/internal/collector"
	"github.com/bgpstream-go/bgpstream/internal/core"

	bgpstream "github.com/bgpstream-go/bgpstream"
)

// TestLiveEndToEnd exercises the paper's headline capability over the
// full distributed stack: a route-collector simulator publishes dumps
// into an HTTP archive with publication delays; the Broker scrapes
// and indexes them; a live-mode stream blocks on the broker and
// receives records as virtual time advances — all over real HTTP and
// real MRT bytes.
func TestLiveEndToEnd(t *testing.T) {
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

	// Generate 1 hour of data up front; the archive server's virtual
	// clock controls when each dump becomes visible.
	topo := astopo.Generate(astopo.DefaultParams(13))
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 4),
		ChurnFlapsPerHour: 40,
		Seed:              13,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	metas, err := sim.GenerateArchive(store, start, start.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	total := len(metas)
	if total == 0 {
		t.Fatal("no dumps generated")
	}

	var mu sync.Mutex
	clock := start.Add(10 * time.Minute) // first few dumps published
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}
	archSrv := httptest.NewServer(&archive.Server{
		Store:        store,
		PublishDelay: time.Minute,
		Now:          now,
	})
	defer archSrv.Close()

	brk := &broker.Server{
		Index: broker.NewIndex(),
		Providers: []broker.DataProvider{
			{Project: "ris", Mirrors: []string{archSrv.URL + "/ris/"}},
			{Project: "routeviews", Mirrors: []string{archSrv.URL + "/routeviews/"}},
		},
		Client: archSrv.Client(),
		Logf:   t.Logf,
	}
	if _, err := brk.Scrape(); err != nil {
		t.Fatal(err)
	}
	brkSrv := httptest.NewServer(brk)
	defer brkSrv.Close()

	// The broker source's string options carry no HTTP client, so the
	// client configured for the test server goes in as an instance.
	filters := core.Filters{Live: true, Start: start}
	client := broker.NewClient(brkSrv.URL, filters)
	client.HTTPClient = brkSrv.Client()
	client.PollInterval = 10 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stream, err := bgpstream.Open(ctx,
		bgpstream.WithSourceInstance(client),
		bgpstream.WithFilters(filters))
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()

	// Publisher loop: advance virtual time and re-scrape, simulating
	// the archive filling up while the consumer is live.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			advance(2 * time.Minute)
			if _, err := brk.Scrape(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			if now().After(start.Add(80 * time.Minute)) {
				return
			}
		}
	}()

	records := 0
	invalid := 0
	var last time.Time
	for records < 200 {
		rec, err := stream.Next()
		if err == io.EOF {
			t.Fatal("live stream ended")
		}
		if err != nil {
			t.Fatalf("after %d records: %v", records, err)
		}
		if rec.Status != core.StatusValid {
			invalid++
			continue
		}
		if rec.Time().Before(last.Add(-archive.RIBSpan)) {
			// Live mode is best-effort interleaved (§3.1): ordering is
			// guaranteed within a broker response, and approximate
			// across polls. Large regressions indicate a real bug.
			t.Fatalf("record regressed too far: %v after %v", rec.Time(), last)
		}
		if rec.Time().After(last) {
			last = rec.Time()
		}
		records++
	}
	<-done
	if invalid > 0 {
		t.Errorf("%d invalid records over live HTTP", invalid)
	}
	if records < 200 {
		t.Fatalf("only %d records", records)
	}
}

// TestFacadeHistorical drives the public facade over a local archive,
// checking the exported surface works without touching internals
// beyond construction.
func TestFacadeHistorical(t *testing.T) {
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	topo := astopo.Generate(astopo.DefaultParams(14))
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 4),
		ChurnFlapsPerHour: 20,
		Seed:              14,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.GenerateArchive(store, start, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	cf, err := bgpstream.ParseCommunityFilter("*:666")
	if err != nil {
		t.Fatal(err)
	}
	_ = cf
	filters := bgpstream.Filters{
		Projects:  []string{"ris"},
		DumpTypes: []bgpstream.DumpType{bgpstream.DumpRIB},
		ElemTypes: []bgpstream.ElemType{bgpstream.ElemRIB},
	}
	s, err := bgpstream.Open(context.Background(),
		bgpstream.WithSourceInstance(&bgpstream.Directory{Dir: dir}),
		bgpstream.WithFilters(filters))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := 0
	for {
		rec, elem, err := s.NextElem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Project != "ris" || elem.Type != bgpstream.ElemRIB {
			t.Fatalf("filter leak: %s %s", rec.Project, elem.Type)
		}
		if elem.OriginASN() == 0 && len(elem.Origins()) == 0 {
			t.Fatal("elem without origin in RIB")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no RIB elems through facade")
	}
}
