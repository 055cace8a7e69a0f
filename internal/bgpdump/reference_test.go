package bgpdump

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/netip"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/astopo"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/collector"
	"github.com/bgpstream-go/bgpstream/internal/core"
)

// The string-building formatter as it was before the Append*
// renderers replaced it, kept verbatim as the differential reference.
// It shares no code with the renderers: the AS-path and community
// renderings it used to get from bgp's String methods (wrappers over
// AppendText now) are the old bodies of those methods, copied below.

func oldFormatElem(r *core.Record, e *core.Elem) string {
	var b strings.Builder
	b.Grow(128)
	proto := "BGP4MP"
	typ := e.Type.String()
	if e.Type == core.ElemRIB {
		proto = "TABLE_DUMP2"
		typ = "B"
	}
	b.WriteString(proto)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(e.Timestamp.Unix(), 10))
	b.WriteByte('|')
	b.WriteString(typ)
	b.WriteByte('|')
	if e.PeerAddr.IsValid() {
		b.WriteString(e.PeerAddr.String())
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(uint64(e.PeerASN), 10))
	b.WriteByte('|')
	switch e.Type {
	case core.ElemPeerState:
		b.WriteString(e.OldState.String())
		b.WriteByte('|')
		b.WriteString(e.NewState.String())
	case core.ElemWithdrawal:
		oldWritePrefix(&b, e)
	default:
		oldWritePrefix(&b, e)
		b.WriteByte('|')
		b.WriteString(oldASPathString(e.ASPath))
		b.WriteString("|IGP|")
		if e.NextHop.IsValid() {
			b.WriteString(e.NextHop.String())
		}
		b.WriteString("|0|0|")
		b.WriteString(oldCommunitiesString(e.Communities))
		b.WriteString("|NAG||")
	}
	return b.String()
}

func oldWritePrefix(b *strings.Builder, e *core.Elem) {
	if e.Prefix.IsValid() {
		b.WriteString(e.Prefix.String())
	}
}

func oldFormatElemVerbose(r *core.Record, e *core.Elem) string {
	var b strings.Builder
	b.Grow(160)
	oldWriteRecordPrefix(&b, r)
	b.WriteByte('|')
	b.WriteString(oldFormatElem(r, e))
	return b.String()
}

func oldFormatRecord(r *core.Record) string {
	var b strings.Builder
	oldWriteRecordPrefix(&b, r)
	return b.String()
}

func oldWriteRecordPrefix(b *strings.Builder, r *core.Record) {
	if r.DumpType == core.DumpRIB {
		b.WriteString("R")
	} else {
		b.WriteString("U")
	}
	b.WriteByte('|')
	b.WriteString(r.Position.String())
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(r.Time().Unix(), 10))
	b.WriteByte('|')
	b.WriteString(r.Project)
	b.WriteByte('|')
	b.WriteString(r.Collector)
	b.WriteByte('|')
	b.WriteString(r.Status.String())
}

func oldASPathString(p bgp.ASPath) string {
	var b strings.Builder
	for i, seg := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch seg.Type {
		case bgp.SegmentASSet, bgp.SegmentConfedSet:
			b.WriteByte('{')
			for i, as := range seg.ASNs {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatUint(uint64(as), 10))
			}
			b.WriteByte('}')
		default:
			for i, as := range seg.ASNs {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(strconv.FormatUint(uint64(as), 10))
			}
		}
	}
	return b.String()
}

func oldCommunitiesString(cs bgp.Communities) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
	}
	return strings.Join(parts, " ")
}

// matchesOld checks the three renderers and their Format* wrappers
// against the old formatter for one (record, elem), and that a
// non-empty dst keeps its prefix.
func matchesOld(t *testing.T, r *core.Record, e *core.Elem) {
	t.Helper()
	const prefix = "keep|"
	for _, c := range []struct {
		name   string
		want   string
		format string
		append func(dst []byte) []byte
	}{
		{"Elem", oldFormatElem(r, e), FormatElem(r, e), func(dst []byte) []byte { return AppendElem(dst, r, e) }},
		{"ElemVerbose", oldFormatElemVerbose(r, e), FormatElemVerbose(r, e), func(dst []byte) []byte { return AppendElemVerbose(dst, r, e) }},
		{"Record", oldFormatRecord(r), FormatRecord(r), func(dst []byte) []byte { return AppendRecord(dst, r) }},
	} {
		if got := string(c.append(nil)); got != c.want {
			t.Fatalf("Append%s:\n got %q\n old %q", c.name, got, c.want)
		}
		if got := string(c.append([]byte(prefix))); got != prefix+c.want {
			t.Fatalf("Append%s onto %q:\n got %q\nwant %q", c.name, prefix, got, prefix+c.want)
		}
		if c.format != c.want {
			t.Fatalf("Format%s:\n got %q\n old %q", c.name, c.format, c.want)
		}
	}
}

func randAddr(rng *rand.Rand) netip.Addr {
	var b4 [4]byte
	var b16 [16]byte
	for i := range b16 {
		b16[i] = byte(rng.UintN(256))
	}
	copy(b4[:], b16[:])
	switch rng.IntN(8) {
	case 0:
		return netip.Addr{} // invalid: the field stays empty
	case 1:
		return netip.AddrFrom16(netip.AddrFrom4(b4).As16()) // IPv4-mapped IPv6
	case 2:
		for i := 2; i < 14; i++ { // a zero run for "::" compression
			b16[i] = 0
		}
		return netip.AddrFrom16(b16)
	case 3, 4:
		return netip.AddrFrom16(b16)
	default:
		return netip.AddrFrom4(b4)
	}
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	a := randAddr(rng)
	if !a.IsValid() {
		return netip.Prefix{}
	}
	var bits int
	switch rng.IntN(4) {
	case 0:
		bits = 0
	case 1:
		bits = a.BitLen() // host prefix
	default:
		bits = rng.IntN(a.BitLen() + 1)
	}
	p := netip.PrefixFrom(a, bits)
	if rng.IntN(2) == 0 {
		p = p.Masked()
	}
	return p
}

func randASN(rng *rand.Rand) uint32 {
	switch rng.IntN(4) {
	case 0:
		return []uint32{0, 65535, 23456, 65536, 4294967295}[rng.IntN(5)]
	case 1:
		return rng.Uint32() // 4-byte
	default:
		return uint32(rng.IntN(65536))
	}
}

func randElem(rng *rand.Rand) *core.Elem {
	e := &core.Elem{
		Type:      core.ElemType(1 + rng.IntN(4)),
		Timestamp: time.Unix(rng.Int64N(1<<32), rng.Int64N(1e9)),
		PeerAddr:  randAddr(rng),
		PeerASN:   randASN(rng),
		Prefix:    randPrefix(rng),
		NextHop:   randAddr(rng),
		OldState:  bgp.FSMState(rng.IntN(8)), // the six states, 0 and 7
		NewState:  bgp.FSMState(rng.IntN(8)),
	}
	if rng.IntN(50) == 0 {
		e.Type = core.ElemType(rng.IntN(7)) // unknown types render as "elem(n)"
	}
	for n := rng.IntN(5); n > 0; n-- { // 0 segments = the empty path
		// AS_SET, AS_SEQUENCE, both confederation kinds, 0 and 5
		seg := bgp.PathSegment{Type: uint8(rng.IntN(6))}
		for k := rng.IntN(9); k > 0; k-- {
			seg.ASNs = append(seg.ASNs, randASN(rng))
		}
		e.ASPath.Segments = append(e.ASPath.Segments, seg)
	}
	for n := rng.IntN(65); n > 0; n-- {
		switch rng.IntN(8) {
		case 0:
			e.Communities = append(e.Communities, bgp.NewCommunity(0, 0))
		case 1:
			e.Communities = append(e.Communities, bgp.NewCommunity(65535, 65535))
		default:
			e.Communities = append(e.Communities, bgp.Community(rng.Uint32()))
		}
	}
	return e
}

func randRecord(rng *rand.Rand) *core.Record {
	r := &core.Record{
		Project:   []string{"ris", "routeviews", ""}[rng.IntN(3)],
		Collector: []string{"rrc00", "route-views2", ""}[rng.IntN(3)],
		DumpType:  []core.DumpType{core.DumpRIB, core.DumpUpdates}[rng.IntN(2)],
		DumpTime:  time.Unix(rng.Int64N(1<<32), 0),
		// the four statuses and one out of range ("status(n)")
		Status:   core.RecordStatus(rng.IntN(5)),
		Position: core.DumpPosition(rng.IntN(4)), // middle, start, end, start|end
	}
	if rng.IntN(3) > 0 { // else: no MRT timestamp, invalid records fall back to DumpTime
		r.MRT.Header.Timestamp = rng.Uint32()
	}
	return r
}

func TestAppendMatchesOldFormatterRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 3))
	for i := 0; i < 20000; i++ {
		matchesOld(t, randRecord(rng), randElem(rng))
	}
}

// TestAppendMatchesOldFormatterArchive runs the differential over
// every elem of a simulated archive (updates and a RIB dump from two
// collectors), i.e. over what the decoders really produce.
func TestAppendMatchesOldFormatterArchive(t *testing.T) {
	topo := astopo.Generate(astopo.DefaultParams(16))
	sim, err := collector.NewSimulator(collector.Config{
		Topo:              topo,
		Collectors:        collector.DefaultCollectors(topo, 2),
		ChurnFlapsPerHour: 600,
		Seed:              16,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := archive.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	if _, err := sim.GenerateArchive(store, start, start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	s := core.NewStream(context.Background(), &core.Directory{Dir: dir}, core.Filters{})
	defer s.Close()
	seen := map[core.ElemType]int{}
	for {
		rec, e, err := s.NextElem()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		matchesOld(t, rec, e)
		seen[e.Type]++
	}
	if seen[core.ElemRIB] == 0 || seen[core.ElemAnnouncement] == 0 || seen[core.ElemWithdrawal] == 0 {
		t.Fatalf("archive too small to mean anything: elems by type %v", seen)
	}
}

// The renderers allocate nothing when dst has room, and a Format*
// wrapper allocates only the string it returns.
func TestAppendAllocs(t *testing.T) {
	r, e := sampleRecord(), sampleElem()
	e.ASPath = bgp.ASPath{Segments: []bgp.PathSegment{
		{Type: bgp.SegmentASSequence, ASNs: []uint32{64501, 3356, 4200000001, 174}},
		{Type: bgp.SegmentASSet, ASNs: []uint32{4777, 9318}},
	}}
	e.PeerAddr = netip.MustParseAddr("2001:db8::1")
	buf := make([]byte, 0, 256)
	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"AppendElem", func() { _ = AppendElem(buf[:0], r, e) }, 0},
		{"AppendElemVerbose", func() { _ = AppendElemVerbose(buf[:0], r, e) }, 0},
		{"AppendRecord", func() { _ = AppendRecord(buf[:0], r) }, 0},
		{"FormatElem", func() { _ = FormatElem(r, e) }, 1},
		{"FormatElemVerbose", func() { _ = FormatElemVerbose(r, e) }, 1},
		{"FormatRecord", func() { _ = FormatRecord(r) }, 1},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.max {
			t.Errorf("%s: %v allocs per call, want <= %v", c.name, got, c.max)
		}
	}
}
