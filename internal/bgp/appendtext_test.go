package bgp

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

// The String bodies as they were before the AppendText renderers
// replaced them, kept verbatim as the differential reference.

func oldPathSegmentString(s PathSegment) string {
	var b strings.Builder
	oldPathSegmentAppendString(s, &b)
	return b.String()
}

func oldPathSegmentAppendString(s PathSegment, b *strings.Builder) {
	switch s.Type {
	case SegmentASSet, SegmentConfedSet:
		b.WriteByte('{')
		for i, as := range s.ASNs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(uint64(as), 10))
		}
		b.WriteByte('}')
	default:
		for i, as := range s.ASNs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatUint(uint64(as), 10))
		}
	}
}

func oldASPathString(p ASPath) string {
	var b strings.Builder
	for i, seg := range p.Segments {
		if i > 0 {
			b.WriteByte(' ')
		}
		oldPathSegmentAppendString(seg, &b)
	}
	return b.String()
}

func oldCommunityString(c Community) string {
	return strconv.Itoa(int(c.ASN())) + ":" + strconv.Itoa(int(c.Value()))
}

func oldCommunitiesString(cs Communities) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = oldCommunityString(c)
	}
	return strings.Join(parts, " ")
}

// randASN leans on the boundaries: 0, 2-octet max, AS_TRANS, 4-octet
// values and the 32-bit maximum.
func randASN(rng *rand.Rand) uint32 {
	switch rng.IntN(6) {
	case 0:
		return []uint32{0, 1, 65535, 23456, 65536, 4294967295}[rng.IntN(6)]
	case 1:
		return rng.Uint32() // 4-byte
	default:
		return uint32(rng.IntN(65536))
	}
}

func randPath(rng *rand.Rand) ASPath {
	var p ASPath
	for n := rng.IntN(5); n > 0; n-- { // 0 segments = the empty path
		seg := PathSegment{Type: uint8(rng.IntN(6))} // the four known types, 0 and 5
		for k := rng.IntN(9); k > 0; k-- {           // empty segments included
			seg.ASNs = append(seg.ASNs, randASN(rng))
		}
		p.Segments = append(p.Segments, seg)
	}
	return p
}

func randCommunities(rng *rand.Rand) Communities {
	var cs Communities
	for n := rng.IntN(65); n > 0; n-- {
		switch rng.IntN(8) {
		case 0:
			cs = append(cs, NewCommunity(0, 0))
		case 1:
			cs = append(cs, NewCommunity(65535, 65535))
		default:
			cs = append(cs, Community(rng.Uint32()))
		}
	}
	return cs
}

// appendsTo checks one renderer call: the text equals want, and a
// non-empty dst keeps its prefix.
func appendsTo(t *testing.T, what string, appendText func([]byte) []byte, want string) {
	t.Helper()
	if got := string(appendText(nil)); got != want {
		t.Fatalf("%s: AppendText(nil) = %q, old String = %q", what, got, want)
	}
	const prefix = "keep|"
	if got := string(appendText([]byte(prefix))); got != prefix+want {
		t.Fatalf("%s: AppendText onto %q = %q, want %q", what, prefix, got, prefix+want)
	}
}

func TestAppendTextMatchesOldString(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	for i := 0; i < 10000; i++ {
		p := randPath(rng)
		want := oldASPathString(p)
		appendsTo(t, "ASPath", p.AppendText, want)
		if got := p.String(); got != want {
			t.Fatalf("ASPath.String() = %q, old = %q", got, want)
		}
		for _, seg := range p.Segments {
			want := oldPathSegmentString(seg)
			appendsTo(t, "PathSegment", seg.AppendText, want)
			if got := seg.String(); got != want {
				t.Fatalf("PathSegment.String() = %q, old = %q", got, want)
			}
		}
		cs := randCommunities(rng)
		want = oldCommunitiesString(cs)
		appendsTo(t, "Communities", cs.AppendText, want)
		if got := cs.String(); got != want {
			t.Fatalf("Communities.String() = %q, old = %q", got, want)
		}
		if len(cs) > 0 {
			want := oldCommunityString(cs[0])
			appendsTo(t, "Community", cs[0].AppendText, want)
			if got := cs[0].String(); got != want {
				t.Fatalf("Community.String() = %q, old = %q", got, want)
			}
		}
	}
}

// ParseASPathString is the inverse of String on what the textual form
// can carry: non-empty AS_SEQUENCE runs separated by AS_SETs.
func TestASPathStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2))
	for i := 0; i < 2000; i++ {
		var p ASPath
		set := rng.IntN(2) == 0
		for n := rng.IntN(5); n > 0; n-- {
			seg := PathSegment{Type: SegmentASSequence}
			if set {
				seg.Type = SegmentASSet
			}
			for k := 1 + rng.IntN(8); k > 0; k-- {
				seg.ASNs = append(seg.ASNs, randASN(rng))
			}
			p.Segments = append(p.Segments, seg)
			set = !set
		}
		back, err := ParseASPathString(p.String())
		if err != nil {
			t.Fatalf("ParseASPathString(%q): %v", p.String(), err)
		}
		if !back.Equal(p) {
			t.Fatalf("round trip of %q gave %q", p.String(), back.String())
		}
	}
}

// String is one allocation — the returned string — for renderings
// that fit its stack scratch; the Builder/Join bodies took more.
func TestStringAllocs(t *testing.T) {
	path := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{64501, 3356, 4200000001, 174}},
		{Type: SegmentASSet, ASNs: []uint32{4777, 9318}},
	}}
	if got := testing.AllocsPerRun(200, func() { _ = path.String() }); got > 1 {
		t.Errorf("ASPath.String() of a 6-hop path: %v allocs, want <= 1", got)
	}
	cs := Communities{NewCommunity(701, 666), NewCommunity(65535, 65535), NewCommunity(0, 0), NewCommunity(3356, 9)}
	if got := testing.AllocsPerRun(200, func() { _ = cs.String() }); got > 1 {
		t.Errorf("Communities.String() of 4 communities: %v allocs, want <= 1", got)
	}
	buf := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(200, func() { _ = cs.AppendText(path.AppendText(buf[:0])) }); got != 0 {
		t.Errorf("AppendText into a pre-sized buffer: %v allocs, want 0", got)
	}
}
