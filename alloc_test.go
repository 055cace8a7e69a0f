package bgpstream_test

import (
	"context"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/obsv"
)

// Allocation gates for the per-elem hot paths. Allocation counts are
// deterministic, so they gate every `go test`; the race detector
// changes them, so the gates skip under -race.

// TestStreamAllocsPerElem bounds the whole pull pipeline — open,
// gunzip, MRT framing, merge, elem materialisation — in heap
// allocations per delivered elem, for the sequential pipeline and the
// parallel one. The bgp.Decoder arenas hold it near 0.5 on this small
// archive, where per-file costs weigh most; the allocating decoders
// they replaced cost 4.9 on a larger one. The bound, 1.0, leaves 2×
// headroom and still fails when one allocation per elem comes back.
func TestStreamAllocsPerElem(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	dir := generateRandomArchive(t, rand.New(rand.NewSource(20160301)))
	for _, workers := range []int{1, 4} {
		elems := 0
		allocs := testing.AllocsPerRun(1, func() {
			s := core.NewStream(context.Background(), &core.Directory{Dir: dir}, core.Filters{})
			s.SetDecodeWorkers(workers)
			defer s.Close()
			elems = 0
			for {
				_, _, err := s.NextElem()
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				elems++
			}
		})
		if elems == 0 {
			t.Fatal("stream delivered no elems")
		}
		per := allocs / float64(elems)
		t.Logf("workers=%d: %.3f allocs/elem over %d elems", workers, per, elems)
		if per > 1.0 {
			t.Errorf("workers=%d: %.3f allocs/elem, want <= 1.0", workers, per)
		}
	}
}

// allocFilterString is a medium-size query: several alternatives per
// dimension, every term exercised.
const allocFilterString = "project ris or routeviews and collector rrc00 or rrc01 or route-views2 " +
	"and type updates and elemtype announcements or withdrawals " +
	"and peer 3356 or 174 or 701 and origin 64500 or 64501 " +
	"and aspath 1299 and prefix more 10.0.0.0/8 or exact 192.0.2.0/24 " +
	"and community 65000:666 or 701:*"

// TestFilterMatchAllocs pins CompiledFilters.MatchElem and MatchMeta
// at zero allocations: they run once per elem and once per dump file.
func TestFilterMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f, err := core.ParseFilterString(allocFilterString)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	f.Start, f.End = start, start.Add(2*time.Hour)
	c := core.CompileFilters(f)

	mk := func(peer uint32, pfx string, origin uint32, comm uint32) core.Elem {
		return core.Elem{
			Type:        core.ElemAnnouncement,
			PeerASN:     peer,
			Prefix:      netip.MustParsePrefix(pfx),
			ASPath:      bgp.SequencePath(peer, 1299, origin),
			Communities: bgp.Communities{bgp.Community(comm)},
		}
	}
	// Each elem after the first two fails at a different term.
	elems := []core.Elem{
		mk(3356, "10.1.0.0/16", 64500, 65000<<16|666),
		mk(174, "192.0.2.0/24", 64501, 701<<16|1),
		mk(9999, "10.1.0.0/16", 64500, 65000<<16|666),
		mk(3356, "172.16.0.0/12", 64500, 65000<<16|666),
		mk(3356, "10.1.0.0/16", 65535, 65000<<16|666),
		mk(3356, "10.1.0.0/16", 64500, 1),
		{Type: core.ElemWithdrawal, PeerASN: 701, Prefix: netip.MustParsePrefix("10.2.0.0/16")},
	}
	metas := []archive.DumpMeta{
		{Project: "ris", Collector: "rrc00", Type: archive.DumpUpdates, Time: start, Duration: 5 * time.Minute},
		{Project: "ris", Collector: "rrc12", Type: archive.DumpUpdates, Time: start, Duration: 5 * time.Minute},
		{Project: "routeviews", Collector: "route-views2", Type: archive.DumpRIB, Time: start, Duration: 5 * time.Minute},
		{Project: "nope", Collector: "rrc00", Type: archive.DumpUpdates, Time: start, Duration: 5 * time.Minute},
	}

	if !c.MatchElem(&elems[0]) || c.MatchElem(&elems[2]) || !c.MatchMeta(metas[0]) || c.MatchMeta(metas[3]) {
		t.Fatal("the filter does not sort the elems and metas as built")
	}

	if n := testing.AllocsPerRun(100, func() {
		for i := range elems {
			c.MatchElem(&elems[i])
		}
	}); n != 0 {
		t.Errorf("MatchElem: %v allocs per %d elems, want 0", n, len(elems))
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, m := range metas {
			c.MatchMeta(m)
		}
	}); n != 0 {
		t.Errorf("MatchMeta: %v allocs per %d metas, want 0", n, len(metas))
	}
}

// TestObsvHotPathAllocs pins one update of each instrument kind,
// through the pre-interned handles every pipeline call site uses, at
// zero allocations: an allocation here would tax every elem of every
// stream.
func TestObsvHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	reg := obsv.NewRegistry()
	ctr := reg.Counter("gate_events_total", "events")
	gauge := reg.Gauge("gate_depth", "depth")
	hist := reg.Histogram("gate_seconds", "latency", obsv.LatencyBuckets()...)
	labeled := reg.CounterVec("gate_labeled_total", "labeled", "transport").With("sse")
	if n := testing.AllocsPerRun(1000, func() {
		ctr.Inc()
		gauge.Add(1)
		hist.Observe(3e-4)
		labeled.Inc()
	}); n != 0 {
		t.Errorf("%v allocs per update round, want 0", n)
	}
}
