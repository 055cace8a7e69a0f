package core

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
)

var (
	peer1 = netip.MustParseAddr("192.0.2.10")
	peer2 = netip.MustParseAddr("192.0.2.20")
	local = netip.MustParseAddr("192.0.2.254")
)

func announce(prefix string, path ...uint32) *bgp.Update {
	origin := uint8(bgp.OriginIGP)
	return &bgp.Update{
		Attrs: bgp.PathAttributes{
			Origin:    &origin,
			ASPath:    bgp.SequencePath(path...),
			HasASPath: true,
			NextHop:   netip.MustParseAddr("192.0.2.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix(prefix)},
	}
}

func withdraw(prefix string) *bgp.Update {
	return &bgp.Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix(prefix)}}
}

// updatesDump builds the records of one updates dump file.
func updatesDump(baseTS uint32, peerAS uint32, peerIP netip.Addr, updates ...*bgp.Update) []mrt.Record {
	recs := make([]mrt.Record, len(updates))
	for i, u := range updates {
		recs[i] = mrt.NewUpdateRecord(baseTS+uint32(i), peerAS, 65000, peerIP, local, u)
	}
	return recs
}

// ribDump builds a minimal TABLE_DUMP_V2 RIB dump: peer index + one
// RIB record per prefix with entries from both peers.
func ribDump(ts uint32, prefixes ...string) []mrt.Record {
	pit := &mrt.PeerIndexTable{
		CollectorBGPID: netip.MustParseAddr("198.51.100.1"),
		ViewName:       "test",
		Peers: []mrt.Peer{
			{BGPID: netip.MustParseAddr("10.0.0.1"), IP: peer1, AS: 64501},
			{BGPID: netip.MustParseAddr("10.0.0.2"), IP: peer2, AS: 64502},
		},
	}
	recs := []mrt.Record{mrt.NewPeerIndexRecord(ts, pit)}
	for seq, pstr := range prefixes {
		p := netip.MustParsePrefix(pstr)
		origin := uint8(bgp.OriginIGP)
		attrs1 := bgp.AppendAttributes(nil, &bgp.PathAttributes{
			Origin: &origin, ASPath: bgp.SequencePath(64501, 174, 3356), HasASPath: true,
			NextHop: netip.MustParseAddr("192.0.2.1"),
		}, 4)
		attrs2 := bgp.AppendAttributes(nil, &bgp.PathAttributes{
			Origin: &origin, ASPath: bgp.SequencePath(64502, 701, 3356), HasASPath: true,
			NextHop: netip.MustParseAddr("192.0.2.2"),
		}, 4)
		rib := &mrt.RIB{
			Sequence: uint32(seq),
			Prefix:   p,
			Entries: []mrt.RIBEntry{
				{PeerIndex: 0, OriginatedTime: ts, Attrs: attrs1},
				{PeerIndex: 1, OriginatedTime: ts, Attrs: attrs2},
			},
		}
		recs = append(recs, mrt.NewRIBRecord(ts+1, rib))
	}
	return recs
}

func TestUpdateRecordElems(t *testing.T) {
	u := announce("198.51.100.0/24", 64501, 701, 13335)
	u.Withdrawn = []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}
	raw := mrt.NewUpdateRecord(1000, 64501, 65000, peer1, local, u)
	rec := &Record{Status: StatusValid, MRT: raw}
	elems, err := rec.Elems()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 2 {
		t.Fatalf("got %d elems", len(elems))
	}
	w, a := elems[0], elems[1]
	if w.Type != ElemWithdrawal || w.Prefix != netip.MustParsePrefix("203.0.113.0/24") {
		t.Errorf("withdrawal elem: %+v", w)
	}
	if a.Type != ElemAnnouncement || a.Prefix != netip.MustParsePrefix("198.51.100.0/24") {
		t.Errorf("announcement elem: %+v", a)
	}
	if a.PeerASN != 64501 || a.PeerAddr != peer1 {
		t.Errorf("peer fields: %+v", a)
	}
	if a.OriginASN() != 13335 {
		t.Errorf("origin = %d", a.OriginASN())
	}
	if ts := a.Timestamp.Unix(); ts != 1000 {
		t.Errorf("timestamp = %d", ts)
	}
}

func TestStateChangeElems(t *testing.T) {
	raw := mrt.NewStateChangeRecord(2000, 64501, 65000, peer1, local, bgp.StateEstablished, bgp.StateIdle)
	rec := &Record{Status: StatusValid, MRT: raw}
	elems, err := rec.Elems()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 1 {
		t.Fatalf("got %d elems", len(elems))
	}
	e := elems[0]
	if e.Type != ElemPeerState || e.OldState != bgp.StateEstablished || e.NewState != bgp.StateIdle {
		t.Errorf("state elem: %+v", e)
	}
}

func TestRIBElems(t *testing.T) {
	recs := ribDump(5000, "10.0.0.0/8")
	pit, err := mrt.DecodePeerIndexTable(recs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Status: StatusValid, MRT: recs[1], peers: pit}
	elems, err := rec.Elems()
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 2 {
		t.Fatalf("got %d elems, want one per peer", len(elems))
	}
	if elems[0].Type != ElemRIB || elems[0].PeerASN != 64501 {
		t.Errorf("elem0: %+v", elems[0])
	}
	if elems[1].PeerASN != 64502 || elems[1].PeerAddr != peer2 {
		t.Errorf("elem1: %+v", elems[1])
	}
	if elems[0].ASPath.String() != "64501 174 3356" {
		t.Errorf("path: %s", elems[0].ASPath)
	}
}

func TestRIBWithoutPeerIndexFails(t *testing.T) {
	recs := ribDump(5000, "10.0.0.0/8")
	rec := &Record{Status: StatusValid, MRT: recs[1]} // no peers
	if _, err := rec.Elems(); err == nil {
		t.Fatal("RIB decomposition without peer index must fail")
	}
}

func TestInvalidRecordHasNoElems(t *testing.T) {
	rec := &Record{Status: StatusCorruptedDump}
	elems, err := rec.Elems()
	if err != nil || elems != nil {
		t.Errorf("invalid record: %v %v", elems, err)
	}
}

func TestPrefixFilterModes(t *testing.T) {
	filter := netip.MustParsePrefix("10.1.0.0/16")
	cases := []struct {
		elem  string
		match PrefixMatch
		want  bool
	}{
		{"10.1.0.0/16", MatchExact, true},
		{"10.1.2.0/24", MatchExact, false},
		{"10.1.2.0/24", MatchMoreSpecific, true},
		{"10.0.0.0/8", MatchMoreSpecific, false},
		{"10.0.0.0/8", MatchLessSpecific, true},
		{"10.1.2.0/24", MatchLessSpecific, false},
		{"10.1.2.0/24", MatchAny, true},
		{"10.0.0.0/8", MatchAny, true},
		{"10.2.0.0/16", MatchAny, false},
		{"192.0.2.0/24", MatchAny, false},
	}
	for _, c := range cases {
		pf := PrefixFilter{Prefix: filter, Match: c.match}
		if got := pf.Matches(netip.MustParsePrefix(c.elem)); got != c.want {
			t.Errorf("filter %s mode %d vs %s = %v, want %v", filter, c.match, c.elem, got, c.want)
		}
	}
}

func TestCompiledPrefixFilters(t *testing.T) {
	f := Filters{Prefixes: []PrefixFilter{
		{Prefix: netip.MustParsePrefix("10.1.0.0/16"), Match: MatchMoreSpecific},
		{Prefix: netip.MustParsePrefix("192.0.2.0/24"), Match: MatchExact},
	}}
	c := CompileFilters(f)
	mk := func(p string) *Elem {
		return &Elem{Type: ElemAnnouncement, Prefix: netip.MustParsePrefix(p)}
	}
	if !c.MatchElem(mk("10.1.2.0/24")) {
		t.Error("sub-prefix of /16 rejected")
	}
	if c.MatchElem(mk("10.2.0.0/16")) {
		t.Error("sibling accepted")
	}
	if !c.MatchElem(mk("192.0.2.0/24")) {
		t.Error("exact rejected")
	}
	if c.MatchElem(mk("192.0.2.0/25")) {
		t.Error("more-specific accepted by exact filter")
	}
	// State elems have no prefix: excluded under prefix filters.
	if c.MatchElem(&Elem{Type: ElemPeerState}) {
		t.Error("state elem passed prefix filter")
	}
}

func TestCommunityFilterWildcards(t *testing.T) {
	full, err := ParseCommunityFilter("3356:666")
	if err != nil {
		t.Fatal(err)
	}
	anyVal, err := ParseCommunityFilter("3356:*")
	if err != nil {
		t.Fatal(err)
	}
	anyASN, err := ParseCommunityFilter("*:666")
	if err != nil {
		t.Fatal(err)
	}
	c := bgp.NewCommunity(3356, 666)
	other := bgp.NewCommunity(701, 120)
	if !full.Matches(c) || full.Matches(other) {
		t.Error("full filter wrong")
	}
	if !anyVal.Matches(c) || !anyVal.Matches(bgp.NewCommunity(3356, 1)) || anyVal.Matches(other) {
		t.Error("asn:* filter wrong")
	}
	if !anyASN.Matches(c) || !anyASN.Matches(bgp.NewCommunity(1, 666)) || anyASN.Matches(other) {
		t.Error("*:value filter wrong")
	}
	if _, err := ParseCommunityFilter("junk"); err == nil {
		t.Error("junk accepted")
	}
}

func TestElemContentFilters(t *testing.T) {
	f := Filters{
		ElemTypes:      []ElemType{ElemAnnouncement},
		PeerASNs:       []uint32{64501},
		OriginASNs:     []uint32{13335},
		ASPathContains: []uint32{701},
	}
	c := CompileFilters(f)
	good := &Elem{
		Type: ElemAnnouncement, PeerASN: 64501,
		ASPath: bgp.SequencePath(64501, 701, 13335),
	}
	if !c.MatchElem(good) {
		t.Error("matching elem rejected")
	}
	badType := *good
	badType.Type = ElemWithdrawal
	if c.MatchElem(&badType) {
		t.Error("wrong type accepted")
	}
	badPeer := *good
	badPeer.PeerASN = 9999
	if c.MatchElem(&badPeer) {
		t.Error("wrong peer accepted")
	}
	badOrigin := *good
	badOrigin.ASPath = bgp.SequencePath(64501, 701, 3356)
	if c.MatchElem(&badOrigin) {
		t.Error("wrong origin accepted")
	}
	badPath := *good
	badPath.ASPath = bgp.SequencePath(64501, 174, 13335)
	if c.MatchElem(&badPath) {
		t.Error("path without 701 accepted")
	}
}

func TestMatchMeta(t *testing.T) {
	f := CompileFilters(Filters{
		Projects:   []string{"ris"},
		Collectors: []string{"rrc00"},
		DumpTypes:  []DumpType{DumpUpdates},
		Start:      time.Unix(1000, 0),
		End:        time.Unix(2000, 0),
	})
	base := archive.DumpMeta{
		Project: "ris", Collector: "rrc00", Type: DumpUpdates,
		Time: time.Unix(1200, 0), Duration: 300 * time.Second,
	}
	if !f.MatchMeta(base) {
		t.Error("matching meta rejected")
	}
	m := base
	m.Project = "routeviews"
	if f.MatchMeta(m) {
		t.Error("wrong project accepted")
	}
	m = base
	m.Collector = "rrc01"
	if f.MatchMeta(m) {
		t.Error("wrong collector accepted")
	}
	m = base
	m.Type = DumpRIB
	if f.MatchMeta(m) {
		t.Error("wrong type accepted")
	}
	m = base
	m.Time = time.Unix(100, 0) // ends at 400 < start
	if f.MatchMeta(m) {
		t.Error("stale dump accepted")
	}
	m = base
	m.Time = time.Unix(900, 0) // covers 900..1200, overlaps start
	if !f.MatchMeta(m) {
		t.Error("boundary-overlapping dump rejected")
	}
	m = base
	m.Time = time.Unix(3000, 0)
	if f.MatchMeta(m) {
		t.Error("future dump accepted")
	}
}

// buildArchive writes a two-collector archive and returns its root.
func buildArchive(t *testing.T) string {
	t.Helper()
	st, err := archive.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 8, 1, 8, 0, 0, 0, time.UTC)
	bu := uint32(base.Unix())
	// ris/rrc00: updates at 8:00 with ts 8:00..+2, 8:05 dump
	_, err = st.WriteDump(archive.RIPERIS, "rrc00", archive.DumpUpdates, base,
		updatesDump(bu+10, 64501, peer1,
			announce("198.51.100.0/24", 64501, 701, 13335),
			withdraw("203.0.113.0/24"),
		))
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.WriteDump(archive.RIPERIS, "rrc00", archive.DumpUpdates, base.Add(5*time.Minute),
		updatesDump(bu+310, 64501, peer1, announce("198.51.101.0/24", 64501, 174, 13335)))
	if err != nil {
		t.Fatal(err)
	}
	// routeviews/route-views2: updates overlapping both ris files
	_, err = st.WriteDump(archive.RouteViews, "route-views2", archive.DumpUpdates, base,
		updatesDump(bu+5, 64502, peer2,
			announce("10.1.0.0/16", 64502, 3356, 2906),
			announce("10.2.0.0/16", 64502, 3356, 2906),
		))
	if err != nil {
		t.Fatal(err)
	}
	// ris RIB dump at 8:00
	_, err = st.WriteDump(archive.RIPERIS, "rrc00", archive.DumpRIB, base, ribDump(bu, "10.0.0.0/8", "192.0.2.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	return st.Root
}

func TestStreamSortedAcrossCollectors(t *testing.T) {
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{})
	defer s.Close()
	var times []int64
	var projects []string
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Status != StatusValid {
			t.Fatalf("unexpected status %s", rec.Status)
		}
		times = append(times, rec.Time().Unix())
		projects = append(projects, rec.Project)
	}
	if len(times) < 8 {
		t.Fatalf("too few records: %d", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("stream not sorted at %d: %v", i, times)
		}
	}
	// Both projects must be interleaved into one stream.
	seen := map[string]bool{}
	for _, p := range projects {
		seen[p] = true
	}
	if !seen["ris"] || !seen["routeviews"] {
		t.Errorf("projects seen: %v", seen)
	}
}

func TestStreamDumpPositions(t *testing.T) {
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{
		Projects:   []string{"ris"},
		Collectors: []string{"rrc00"},
		DumpTypes:  []DumpType{DumpUpdates},
	})
	defer s.Close()
	var positions []DumpPosition
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		positions = append(positions, rec.Position)
	}
	// Two dumps: first has 2 records (start, end), second 1 (start|end).
	if len(positions) != 3 {
		t.Fatalf("got %d records", len(positions))
	}
	if !positions[0].IsStart() || positions[0].IsEnd() {
		t.Errorf("pos0 = %s", positions[0])
	}
	if !positions[1].IsEnd() {
		t.Errorf("pos1 = %s", positions[1])
	}
	if !positions[2].IsStart() || !positions[2].IsEnd() {
		t.Errorf("pos2 = %s", positions[2])
	}
}

func TestStreamElemFiltering(t *testing.T) {
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{
		DumpTypes: []DumpType{DumpUpdates},
		ElemTypes: []ElemType{ElemAnnouncement},
		Prefixes:  []PrefixFilter{{Prefix: netip.MustParsePrefix("10.0.0.0/8"), Match: MatchMoreSpecific}},
	})
	defer s.Close()
	var got []string
	for {
		_, e, err := s.NextElem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e.Prefix.String())
	}
	if len(got) != 2 || got[0] != "10.1.0.0/16" || got[1] != "10.2.0.0/16" {
		t.Errorf("elems = %v", got)
	}
}

func TestStreamTimeInterval(t *testing.T) {
	root := buildArchive(t)
	base := time.Date(2015, 8, 1, 8, 0, 0, 0, time.UTC)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{
		DumpTypes: []DumpType{DumpUpdates},
		Start:     base.Add(4 * time.Minute),
		End:       base.Add(10 * time.Minute),
	})
	defer s.Close()
	n := 0
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ts := rec.Time()
		if ts.Before(base.Add(4*time.Minute)) || ts.After(base.Add(10*time.Minute)) {
			t.Errorf("record outside interval: %v", ts)
		}
		n++
	}
	if n != 1 { // only the 8:05 dump's record
		t.Errorf("got %d records", n)
	}
}

func TestStreamRIBAndUpdatesInterleave(t *testing.T) {
	// Intra-collector sorting: RIB dump records interleave with
	// updates records by timestamp (Figure 3).
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{
		Projects: []string{"ris"},
	})
	defer s.Close()
	var kinds []DumpType
	var times []int64
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, rec.DumpType)
		times = append(times, rec.Time().Unix())
	}
	// RIB records (ts base, base+1) must precede update records
	// (base+10, base+11, base+310).
	if kinds[0] != DumpRIB {
		t.Errorf("first record type = %s", kinds[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("interleaved stream unsorted: %v %v", kinds, times)
		}
	}
}

// TestStreamCorruptedDumpFile pins §3.3.3's status for a dump that is
// readable up to a fault: a dump truncated mid-record yields its valid
// prefix in file order, then exactly one StatusCorruptedRecord (a
// corrupted record, not an unreachable dump), then nothing more from
// that file, on the sequential and the parallel pipeline alike.
func TestStreamCorruptedDumpFile(t *testing.T) {
	const valid = 200 // more than two prefetch batches
	root := buildArchive(t)
	st := &archive.Store{Root: root}
	metas, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	var victim archive.DumpMeta
	for _, m := range metas {
		if m.Type == DumpUpdates && m.Project == "ris" {
			victim = m
			break
		}
	}
	// Rewrite the victim as valid records plus one cut in half, and
	// gzip the truncated MRT stream whole so the fault is in the MRT
	// framing, not in the compression.
	bu := uint32(victim.Time.Unix())
	updates := make([]*bgp.Update, valid+1)
	for i := range updates {
		updates[i] = announce(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24).String(), 64501, 701)
	}
	var raw bytes.Buffer
	w := mrt.NewWriter(&raw)
	var last int // offset of the last record
	for _, rec := range updatesDump(bu, 64501, peer1, updates...) {
		last = raw.Len()
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	cut := last + (raw.Len()-last)/2
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw.Bytes()[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim.URL, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := NewStream(context.Background(), &Directory{Dir: root}, Filters{Projects: []string{"ris"}, DumpTypes: []DumpType{DumpUpdates}})
			s.SetDecodeWorkers(workers)
			defer s.Close()
			var got []*Record
			for {
				rec, err := s.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if rec.Collector == victim.Collector && rec.DumpTime.Equal(victim.Time) {
					got = append(got, rec)
				}
			}
			if len(got) != valid+1 {
				t.Fatalf("truncated dump yielded %d records, want %d valid + 1 corrupted", len(got), valid)
			}
			for i, rec := range got[:valid] {
				if rec.Status != StatusValid || rec.Time().Unix() != int64(bu)+int64(i) {
					t.Fatalf("record %d: status %s at %d, want valid at %d", i, rec.Status, rec.Time().Unix(), int64(bu)+int64(i))
				}
			}
			if last := got[valid]; last.Status != StatusCorruptedRecord {
				t.Fatalf("record after the valid prefix: status %s, want %s", last.Status, StatusCorruptedRecord)
			}
		})
	}
}

func TestStreamMissingDumpFile(t *testing.T) {
	meta := archive.DumpMeta{
		Project: "ris", Collector: "rrc00", Type: DumpUpdates,
		Time: time.Unix(0, 0), Duration: 5 * time.Minute,
		URL: filepath.Join(t.TempDir(), "nonexistent.gz"),
	}
	s := NewStream(context.Background(), &SingleFiles{Metas: []archive.DumpMeta{meta}}, Filters{})
	defer s.Close()
	rec, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != StatusCorruptedDump {
		t.Errorf("status = %s", rec.Status)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestCSVInterface(t *testing.T) {
	root := buildArchive(t)
	st := &archive.Store{Root: root}
	metas, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(t.TempDir(), "index.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metas {
		if _, err := io.WriteString(f, m.Project+","+m.Collector+","+string(m.Type)+","+
			timeString(m.Time)+","+durString(m.Duration)+","+m.URL+"\n"); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	s := NewStream(context.Background(), &CSVFile{Path: csvPath}, Filters{})
	defer s.Close()
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n < 8 {
		t.Errorf("csv stream yielded %d records", n)
	}
}

func timeString(t time.Time) string { return itoa(t.Unix()) }
func durString(d time.Duration) string {
	return itoa(int64(d / time.Second))
}
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// blockingDI delivers batches over a channel, emulating live mode.
type blockingDI struct {
	ch <-chan []archive.DumpMeta
}

func (b *blockingDI) NextBatch(ctx context.Context) ([]archive.DumpMeta, error) {
	select {
	case batch, ok := <-b.ch:
		if !ok {
			return nil, io.EOF
		}
		return batch, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestStreamLiveBlocking(t *testing.T) {
	root := buildArchive(t)
	st := &archive.Store{Root: root}
	metas, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan []archive.DumpMeta)
	s := NewStream(context.Background(), &blockingDI{ch: ch}, Filters{Live: true})
	defer s.Close()

	go func() {
		// Deliver dumps one at a time with the consumer already waiting.
		for _, m := range metas {
			ch <- []archive.DumpMeta{m}
		}
		close(ch)
	}()
	n := 0
	for {
		_, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n < 8 {
		t.Errorf("live stream yielded %d records", n)
	}
}

func TestStreamContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan []archive.DumpMeta) // never delivers
	s := NewStream(ctx, &blockingDI{ch: ch}, Filters{Live: true})
	defer s.Close()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

func TestDynamicFilterAddition(t *testing.T) {
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{
		DumpTypes: []DumpType{DumpUpdates},
		ElemTypes: []ElemType{ElemAnnouncement},
		Prefixes:  []PrefixFilter{{Prefix: netip.MustParsePrefix("198.51.100.0/24"), Match: MatchExact}},
	})
	defer s.Close()
	_, e, err := s.NextElem()
	if err != nil {
		t.Fatal(err)
	}
	if e.Prefix.String() != "198.51.100.0/24" {
		t.Fatalf("first elem %s", e.Prefix)
	}
	// Widen the filter mid-stream, as the RTBH workflow does.
	s.AddPrefixFilter(PrefixFilter{Prefix: netip.MustParsePrefix("198.51.101.0/24"), Match: MatchExact})
	_, e, err = s.NextElem()
	if err != nil {
		t.Fatal(err)
	}
	if e.Prefix.String() != "198.51.101.0/24" {
		t.Errorf("after widening: %s", e.Prefix)
	}
}

// TestFilterAdditionWhileConsuming adds filters from another goroutine
// while the consumer and the decode workers read the stream's filter
// snapshot, as the RTBH workflow does across two streams. Under -race
// it checks the snapshot hand-off; the final count checks that
// concurrent additions are not lost.
func TestFilterAdditionWhileConsuming(t *testing.T) {
	root := buildArchive(t)
	s := NewStream(context.Background(), &Directory{Dir: root}, Filters{})
	s.SetDecodeWorkers(2)
	defer s.Close()
	const adds = 100
	done := make(chan struct{})
	for range 2 {
		go func() {
			defer func() { done <- struct{}{} }()
			for range adds / 2 {
				s.AddPrefixFilter(PrefixFilter{Prefix: netip.MustParsePrefix("0.0.0.0/0")})
				s.AddCommunityFilter(CommunityFilter{})
			}
		}()
	}
	for {
		_, _, err := s.NextElem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	<-done
	<-done
	if f := s.Filters(); len(f.Prefixes) != adds || len(f.Communities) != adds {
		t.Errorf("after %d concurrent additions: %d prefix, %d community filters", adds, len(f.Prefixes), len(f.Communities))
	}
}

func TestWindowedBatching(t *testing.T) {
	root := buildArchive(t)
	w := &Windowed{Inner: &Directory{Dir: root}, Window: 4 * time.Minute}
	ctx := context.Background()
	var sizes []int
	for {
		batch, err := w.NextBatch(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(batch))
	}
	if len(sizes) != 2 {
		t.Fatalf("windows: %v", sizes)
	}
	if sizes[0] != 3 || sizes[1] != 1 {
		t.Errorf("window sizes: %v", sizes)
	}
}

func TestRecordStatusStrings(t *testing.T) {
	for s, want := range map[RecordStatus]string{
		StatusValid:           "valid",
		StatusCorruptedDump:   "corrupted-dump",
		StatusCorruptedRecord: "corrupted-record",
		StatusUnsupported:     "unsupported",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
	if ElemAnnouncement.String() != "A" || ElemRIB.String() != "R" || ElemWithdrawal.String() != "W" || ElemPeerState.String() != "S" {
		t.Error("elem type codes wrong")
	}
}
