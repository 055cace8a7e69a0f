package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
	"github.com/bgpstream-go/bgpstream/internal/resilience/faultproxy"
)

// buildDump encodes n update records, gzip-compressed when gz is set.
func buildDump(t *testing.T, n int, gz bool) []byte {
	t.Helper()
	stamps := make([]uint32, n)
	for i := range stamps {
		stamps[i] = uint32(1000 + i)
	}
	return buildStampedDump(t, stamps, gz)
}

// buildStampedDump builds a dump with one UPDATE per stamp, in order.
func buildStampedDump(t *testing.T, stamps []uint32, gz bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var w *mrt.Writer
	if gz {
		w = mrt.NewGzipWriter(&buf)
	} else {
		w = mrt.NewWriter(&buf)
	}
	origin := uint8(bgp.OriginIGP)
	for i, ts := range stamps {
		u := &bgp.Update{
			Attrs: bgp.PathAttributes{Origin: &origin, ASPath: bgp.SequencePath(64501, uint32(1+i%7)), HasASPath: true,
				NextHop: netip.MustParseAddr("192.0.2.1")},
			NLRI: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)},
		}
		rec := mrt.NewUpdateRecord(ts, 64501, 65000,
			netip.MustParseAddr("192.0.2.10"), netip.MustParseAddr("192.0.2.254"), u)
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	return buf.Bytes()
}

func serveDump(payload []byte) http.Handler {
	mod := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeContent(w, r, "", mod, bytes.NewReader(payload))
	})
}

// collectTimestamps drains a stream into (status, unix-ts) pairs.
func collectTimestamps(t *testing.T, s *Stream) [][2]int64 {
	t.Helper()
	var out [][2]int64
	for {
		rec, err := s.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, [2]int64{int64(rec.Status), rec.Time().Unix()})
	}
}

// TestDumpStreamResumesAfterMidBodyReset proves the tentpole contract
// at the record level: a TCP reset deep inside a gzip dump is
// transparently resumed below the decompressor and the record
// sequence is identical to a fault-free run.
func TestDumpStreamResumesAfterMidBodyReset(t *testing.T) {
	payload := buildDump(t, 400, true)
	meta := archive.DumpMeta{Project: "ris", Collector: "rrc00", Type: DumpUpdates,
		Time: time.Unix(1000, 0), Duration: 5 * time.Minute}

	clean := httptest.NewServer(serveDump(payload))
	defer clean.Close()
	cm := meta
	cm.URL = clean.URL + "/dump.gz"
	cs := NewStream(context.Background(), &SingleFiles{Metas: []archive.DumpMeta{cm}}, Filters{})
	want := collectTimestamps(t, cs)
	cs.Close()
	if len(want) != 400 {
		t.Fatalf("clean run: %d records, want 400", len(want))
	}

	for _, offset := range []int64{3, int64(len(payload)) / 2, int64(len(payload)) - 2} {
		proxy := faultproxy.New(serveDump(payload))
		srv := httptest.NewServer(proxy)
		proxy.Push("/dump.gz", faultproxy.Fault{Kind: faultproxy.FaultReset, Offset: offset})
		fm := meta
		fm.URL = srv.URL + "/dump.gz"
		s := NewStream(context.Background(), &SingleFiles{Metas: []archive.DumpMeta{fm}}, Filters{})
		s.SetFetchPolicy(resilience.Policy{MaxAttempts: 4, Backoff: time.Millisecond})
		got := collectTimestamps(t, s)
		st := s.SourceStats()
		s.Close()
		srv.Close()
		if len(got) != len(want) {
			t.Fatalf("offset %d: %d records, want %d", offset, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("offset %d: record %d differs: %v != %v", offset, i, got[i], want[i])
			}
		}
		if st.FetchResumes == 0 {
			t.Fatalf("offset %d: resume not reflected in SourceStats: %+v", offset, st)
		}
	}
}

// TestDump404SingleRequestSingleCorruptedRecord pins the satellite
// contract: a permanently missing dump costs exactly one request and
// degrades to exactly one corrupted-dump record.
func TestDump404SingleRequestSingleCorruptedRecord(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer srv.Close()
	meta := archive.DumpMeta{Project: "ris", Collector: "rrc00", Type: DumpUpdates,
		Time: time.Unix(1000, 0), Duration: 5 * time.Minute, URL: srv.URL + "/missing.gz"}
	s := NewStream(context.Background(), &SingleFiles{Metas: []archive.DumpMeta{meta}}, Filters{})
	defer s.Close()
	s.SetFetchPolicy(resilience.Policy{MaxAttempts: 5, Backoff: time.Millisecond})
	got := collectTimestamps(t, s)
	if len(got) != 1 || RecordStatus(got[0][0]) != StatusCorruptedDump {
		t.Fatalf("got %v, want exactly one corrupted-dump record", got)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("404 dump cost %d requests, want exactly 1 (no retry burn)", n)
	}
	if st := s.SourceStats(); st.FetchFailures != 1 {
		t.Fatalf("permanent failure not reflected in SourceStats: %+v", st)
	}
}

// TestDumpResumeBudgetExhaustedDegradesToCorruptedDump: when the link
// is so broken the resume budget runs out mid-dump, the records
// already decoded are kept and the remainder degrades to one
// corrupted-dump record — not a stream-fatal error.
func TestDumpResumeBudgetExhaustedDegradesToCorruptedDump(t *testing.T) {
	payload := buildDump(t, 100, false) // raw MRT: ~76 bytes/record
	proxy := faultproxy.New(serveDump(payload))
	srv := httptest.NewServer(proxy)
	defer srv.Close()
	// Every response dies ~200 bytes in; with a 2-resume budget the
	// transfer makes a little progress and then gives up for good.
	for i := 0; i < 16; i++ {
		proxy.Push("/d", faultproxy.Fault{Kind: faultproxy.FaultReset, Offset: 200})
	}
	meta := archive.DumpMeta{Project: "ris", Collector: "rrc00", Type: DumpUpdates,
		Time: time.Unix(1000, 0), Duration: 5 * time.Minute, URL: srv.URL + "/d"}
	fetch := &resilience.Fetcher{
		Policy:     resilience.Policy{MaxAttempts: 1},
		MaxResumes: 2,
	}
	ds := newDumpSource(context.Background(), fetch, meta, nil)
	var statuses []RecordStatus
	for {
		rec, err := ds.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("dump source error (should degrade, not fail): %v", err)
		}
		statuses = append(statuses, rec.Status)
	}
	if len(statuses) < 2 {
		t.Fatalf("no records decoded before the failure: %v", statuses)
	}
	last := statuses[len(statuses)-1]
	if last != StatusCorruptedDump {
		t.Fatalf("terminal status = %v, want StatusCorruptedDump", last)
	}
	for _, st := range statuses[:len(statuses)-1] {
		if st != StatusValid {
			t.Fatalf("pre-failure record has status %v", st)
		}
	}
}
