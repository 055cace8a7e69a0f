package bgp

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestNLRIRoundTripIPv4(t *testing.T) {
	cases := []string{"0.0.0.0/0", "10.0.0.0/8", "192.0.2.0/24", "198.51.100.37/32", "172.16.0.0/12"}
	for _, s := range cases {
		want := mustPrefix(t, s)
		enc := AppendNLRI(nil, want)
		got, n, err := DecodeNLRI(enc, AFIIPv4)
		if err != nil {
			t.Fatalf("DecodeNLRI(%s): %v", s, err)
		}
		if n != len(enc) {
			t.Errorf("DecodeNLRI(%s) consumed %d bytes, want %d", s, n, len(enc))
		}
		if got != want {
			t.Errorf("round trip %s: got %s", want, got)
		}
	}
}

func TestNLRIRoundTripIPv6(t *testing.T) {
	cases := []string{"::/0", "2001:db8::/32", "2001:db8:1:2::/64", "2001:db8::1/128"}
	for _, s := range cases {
		want := mustPrefix(t, s)
		enc := AppendNLRI(nil, want)
		got, _, err := DecodeNLRI(enc, AFIIPv6)
		if err != nil {
			t.Fatalf("DecodeNLRI(%s): %v", s, err)
		}
		if got != want {
			t.Errorf("round trip %s: got %s", want, got)
		}
	}
}

func TestNLRIEncodingIsMinimal(t *testing.T) {
	// A /24 needs 1 length byte + 3 address bytes.
	enc := AppendNLRI(nil, mustPrefix(t, "192.0.2.0/24"))
	if len(enc) != 4 {
		t.Fatalf("encoded /24 is %d bytes, want 4", len(enc))
	}
	// A /0 needs only the length byte.
	enc = AppendNLRI(nil, mustPrefix(t, "0.0.0.0/0"))
	if len(enc) != 1 {
		t.Fatalf("encoded /0 is %d bytes, want 1", len(enc))
	}
}

func TestNLRIMasksHostBits(t *testing.T) {
	p := netip.PrefixFrom(netip.MustParseAddr("192.0.2.255"), 24)
	enc := AppendNLRI(nil, p)
	got, _, err := DecodeNLRI(enc, AFIIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if got != mustPrefix(t, "192.0.2.0/24") {
		t.Errorf("host bits leaked: got %s", got)
	}
}

func TestDecodeNLRIErrors(t *testing.T) {
	if _, _, err := DecodeNLRI(nil, AFIIPv4); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty buffer: got %v, want ErrTruncated", err)
	}
	if _, _, err := DecodeNLRI([]byte{33, 1, 2, 3, 4, 5}, AFIIPv4); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("/33 in v4: got %v, want ErrBadPrefix", err)
	}
	if _, _, err := DecodeNLRI([]byte{24, 1}, AFIIPv4); !errors.Is(err, ErrTruncated) {
		t.Errorf("short body: got %v, want ErrTruncated", err)
	}
	if _, _, err := DecodeNLRI([]byte{129}, AFIIPv6); !errors.Is(err, ErrBadPrefix) {
		t.Errorf("/129 in v6: got %v, want ErrBadPrefix", err)
	}
}

func TestNLRIListRoundTrip(t *testing.T) {
	want := []netip.Prefix{
		mustPrefix(t, "10.0.0.0/8"),
		mustPrefix(t, "192.0.2.0/24"),
		mustPrefix(t, "198.51.100.0/25"),
	}
	enc := AppendNLRIList(nil, want)
	got, err := new(Decoder).DecodeNLRIList(enc, AFIIPv4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestASPathString(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{701, 174, 3356}},
		{Type: SegmentASSet, ASNs: []uint32{4777, 9318}},
	}}
	want := "701 174 3356 {4777,9318}"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestASPathParseInverse(t *testing.T) {
	for _, s := range []string{"", "701", "701 174 3356", "1 2 {3,4} 5", "{9}"} {
		p, err := ParseASPathString(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if got := p.String(); got != s {
			t.Errorf("parse/print %q: got %q", s, got)
		}
	}
}

func TestASPathLen(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{1, 2, 3}},
		{Type: SegmentASSet, ASNs: []uint32{4, 5}},
	}}
	if got := p.Len(); got != 4 {
		t.Errorf("Len() = %d, want 4 (set counts 1)", got)
	}
}

func TestASPathOrigin(t *testing.T) {
	p := SequencePath(701, 174, 3356)
	origin, ok := p.Origin()
	if !ok || len(origin) != 1 || origin[0] != 3356 {
		t.Errorf("Origin() = %v %v, want [3356] true", origin, ok)
	}
	moas := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{1}},
		{Type: SegmentASSet, ASNs: []uint32{2, 3}},
	}}
	origin, ok = moas.Origin()
	if !ok || len(origin) != 2 {
		t.Errorf("set Origin() = %v %v, want two ASNs", origin, ok)
	}
	var empty ASPath
	if _, ok := empty.Origin(); ok {
		t.Error("empty path should have no origin")
	}
}

func TestASPathRoundTrip2And4(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{64512, 701, 13335}},
		{Type: SegmentASSet, ASNs: []uint32{65000, 65001}},
	}}
	for _, size := range []int{2, 4} {
		enc := AppendASPath(nil, p, size)
		got, err := new(Decoder).DecodeASPath(enc, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !got.Equal(p) {
			t.Errorf("size %d: got %s, want %s", size, got, p)
		}
	}
}

func TestASPath2ByteSubstitutesASTrans(t *testing.T) {
	p := SequencePath(196608, 701) // 196608 > 0xFFFF
	enc := AppendASPath(nil, p, 2)
	got, err := new(Decoder).DecodeASPath(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Segments[0].ASNs[0] != 23456 {
		t.Errorf("4-byte ASN in 2-byte path: got %d, want AS_TRANS 23456", got.Segments[0].ASNs[0])
	}
}

func TestASPathLongSegmentSplit(t *testing.T) {
	asns := make([]uint32, 300)
	for i := range asns {
		asns[i] = uint32(i + 1)
	}
	p := SequencePath(asns...)
	enc := AppendASPath(nil, p, 4)
	got, err := new(Decoder).DecodeASPath(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Segments) != 2 {
		t.Fatalf("got %d segments, want 2 (255+45 split)", len(got.Segments))
	}
	if got.Len() != 300 {
		t.Errorf("Len() = %d, want 300", got.Len())
	}
}

func TestASPathFlattenUnique(t *testing.T) {
	p := ASPath{Segments: []PathSegment{
		{Type: SegmentASSequence, ASNs: []uint32{1, 2, 2, 3}},
		{Type: SegmentASSet, ASNs: []uint32{3, 4}},
	}}
	got := p.FlattenUnique()
	want := []uint32{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FlattenUnique() = %v, want %v", got, want)
	}
}

func TestCommunityParts(t *testing.T) {
	c := NewCommunity(3356, 666)
	if c.ASN() != 3356 || c.Value() != 666 {
		t.Errorf("parts = %d:%d, want 3356:666", c.ASN(), c.Value())
	}
	if c.String() != "3356:666" {
		t.Errorf("String() = %q", c.String())
	}
	back, err := ParseCommunity("3356:666")
	if err != nil || back != c {
		t.Errorf("ParseCommunity: %v %v", back, err)
	}
	if _, err := ParseCommunity("nope"); err == nil {
		t.Error("ParseCommunity should reject malformed input")
	}
	if _, err := ParseCommunity("70000:1"); err == nil {
		t.Error("ParseCommunity should reject out-of-range ASN")
	}
}

func TestCommunitiesRoundTrip(t *testing.T) {
	cs := Communities{NewCommunity(701, 120), NewCommunity(3356, 9999)}
	enc := AppendCommunities(nil, cs)
	got, err := new(Decoder).DecodeCommunities(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cs) {
		t.Errorf("got %v, want %v", got, cs)
	}
	if _, err := new(Decoder).DecodeCommunities([]byte{1, 2, 3}); !errors.Is(err, ErrBadLength) {
		t.Errorf("odd length: got %v, want ErrBadLength", err)
	}
}

func testUpdate(t *testing.T) *Update {
	t.Helper()
	origin := uint8(OriginIGP)
	med := uint32(100)
	return &Update{
		Withdrawn: []netip.Prefix{mustPrefix(t, "203.0.113.0/24")},
		Attrs: PathAttributes{
			Origin:      &origin,
			ASPath:      SequencePath(64512, 701, 174),
			HasASPath:   true,
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			MED:         &med,
			Communities: Communities{NewCommunity(701, 666)},
		},
		NLRI: []netip.Prefix{mustPrefix(t, "198.51.100.0/24"), mustPrefix(t, "10.1.0.0/16")},
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	want := testUpdate(t)
	for _, asSize := range []int{2, 4} {
		enc := EncodeUpdate(want, asSize)
		got, err := new(Decoder).DecodeUpdateMessage(enc, asSize)
		if err != nil {
			t.Fatalf("asSize %d: %v", asSize, err)
		}
		if !reflect.DeepEqual(got.Withdrawn, want.Withdrawn) {
			t.Errorf("withdrawn: got %v want %v", got.Withdrawn, want.Withdrawn)
		}
		if !reflect.DeepEqual(got.NLRI, want.NLRI) {
			t.Errorf("nlri: got %v want %v", got.NLRI, want.NLRI)
		}
		if !got.Attrs.ASPath.Equal(want.Attrs.ASPath) {
			t.Errorf("as path: got %s want %s", got.Attrs.ASPath, want.Attrs.ASPath)
		}
		if got.Attrs.NextHop != want.Attrs.NextHop {
			t.Errorf("next hop: got %s want %s", got.Attrs.NextHop, want.Attrs.NextHop)
		}
		if *got.Attrs.MED != *want.Attrs.MED {
			t.Errorf("med: got %d want %d", *got.Attrs.MED, *want.Attrs.MED)
		}
		if !reflect.DeepEqual(got.Attrs.Communities, want.Attrs.Communities) {
			t.Errorf("communities: got %v want %v", got.Attrs.Communities, want.Attrs.Communities)
		}
	}
}

func TestUpdateIPv6MPReach(t *testing.T) {
	origin := uint8(OriginIGP)
	u := &Update{
		Attrs: PathAttributes{
			Origin:    &origin,
			ASPath:    SequencePath(64512, 6939),
			HasASPath: true,
			MPReach: &MPReach{
				AFI:     AFIIPv6,
				SAFI:    SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{mustPrefix(t, "2001:db8:100::/48")},
			},
		},
	}
	enc := EncodeUpdate(u, 4)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp := got.Attrs.MPReach
	if mp == nil {
		t.Fatal("MPReach lost in round trip")
	}
	if mp.AFI != AFIIPv6 || mp.NextHop != u.Attrs.MPReach.NextHop {
		t.Errorf("mp header: %+v", mp)
	}
	if !reflect.DeepEqual(mp.NLRI, u.Attrs.MPReach.NLRI) {
		t.Errorf("mp nlri: got %v", mp.NLRI)
	}
	ann := got.Announced()
	if len(ann) != 1 || ann[0] != mustPrefix(t, "2001:db8:100::/48") {
		t.Errorf("Announced() = %v", ann)
	}
}

func TestUpdateMPUnreach(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{
			MPUnreach: &MPUnreach{
				AFI:  AFIIPv6,
				SAFI: SAFIUnicast,
				NLRI: []netip.Prefix{mustPrefix(t, "2001:db8::/32")},
			},
		},
	}
	enc := EncodeUpdate(u, 4)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := got.AllWithdrawn()
	if len(w) != 1 || w[0] != mustPrefix(t, "2001:db8::/32") {
		t.Errorf("AllWithdrawn() = %v", w)
	}
}

func TestUpdateLinkLocalNextHop(t *testing.T) {
	u := &Update{
		Attrs: PathAttributes{
			MPReach: &MPReach{
				AFI:       AFIIPv6,
				SAFI:      SAFIUnicast,
				NextHop:   netip.MustParseAddr("2001:db8::1"),
				LinkLocal: netip.MustParseAddr("fe80::1"),
				NLRI:      []netip.Prefix{mustPrefix(t, "2001:db8::/32")},
			},
		},
	}
	enc := EncodeUpdate(u, 4)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs.MPReach.LinkLocal != netip.MustParseAddr("fe80::1") {
		t.Errorf("link local: %s", got.Attrs.MPReach.LinkLocal)
	}
}

func TestMessageFraming(t *testing.T) {
	msg := AppendMessage(nil, MsgKeepalive, nil)
	if len(msg) != HeaderLen {
		t.Fatalf("keepalive length %d, want %d", len(msg), HeaderLen)
	}
	got, n, err := DecodeMessage(msg)
	if err != nil || n != HeaderLen || got.Type != MsgKeepalive {
		t.Fatalf("decode keepalive: %+v %d %v", got, n, err)
	}
	// Corrupt the marker.
	msg[3] = 0
	if _, _, err := DecodeMessage(msg); !errors.Is(err, ErrBadMarker) {
		t.Errorf("bad marker: got %v", err)
	}
}

func TestMessageBadLength(t *testing.T) {
	msg := AppendMessage(nil, MsgUpdate, make([]byte, 10))
	msg[16], msg[17] = 0, 5 // length 5 < HeaderLen
	if _, _, err := DecodeMessage(msg); !errors.Is(err, ErrBadLength) {
		t.Errorf("short length: got %v", err)
	}
}

func TestAggregatorRoundTrip(t *testing.T) {
	for _, asSize := range []int{2, 4} {
		u := &Update{
			Attrs: PathAttributes{
				Aggregator: &Aggregator{ASN: 65001, Addr: netip.MustParseAddr("192.0.2.9")},
			},
			NLRI: []netip.Prefix{mustPrefix(t, "10.0.0.0/8")},
		}
		enc := EncodeUpdate(u, asSize)
		got, err := new(Decoder).DecodeUpdateMessage(enc, asSize)
		if err != nil {
			t.Fatalf("asSize %d: %v", asSize, err)
		}
		if got.Attrs.Aggregator == nil || got.Attrs.Aggregator.ASN != 65001 {
			t.Errorf("asSize %d: aggregator %+v", asSize, got.Attrs.Aggregator)
		}
	}
}

func TestAS4PathReconciliation(t *testing.T) {
	// A 2-byte speaker recorded AS_TRANS; AS4_PATH carries the truth.
	as4 := SequencePath(23456, 701, 196608)
	a := PathAttributes{
		ASPath:    SequencePath(64496, 23456, 701, 23456),
		HasASPath: true,
		AS4Path:   &as4,
	}
	got := a.EffectivePath()
	want := SequencePath(64496, 23456, 701, 196608)
	if !got.Equal(want) {
		t.Errorf("EffectivePath() = %s, want %s", got, want)
	}
}

func TestAS4PathLongerThanASPathIgnored(t *testing.T) {
	as4 := SequencePath(1, 2, 3, 4, 5)
	a := PathAttributes{
		ASPath:    SequencePath(10, 20),
		HasASPath: true,
		AS4Path:   &as4,
	}
	if got := a.EffectivePath(); !got.Equal(a.ASPath) {
		t.Errorf("oversized AS4_PATH must be ignored; got %s", got)
	}
}

func TestAutoAS4PathEmitted(t *testing.T) {
	// Encoding a 4-byte path with asSize=2 must emit AS4_PATH so the
	// original ASNs survive the round trip after reconciliation.
	u := &Update{
		Attrs: PathAttributes{
			ASPath:    SequencePath(196608, 701),
			HasASPath: true,
		},
		NLRI: []netip.Prefix{mustPrefix(t, "10.0.0.0/8")},
	}
	enc := EncodeUpdate(u, 2)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs.AS4Path == nil {
		t.Fatal("AS4_PATH not emitted for 4-byte ASNs")
	}
	eff := got.Attrs.EffectivePath()
	if !eff.Equal(u.Attrs.ASPath) {
		t.Errorf("reconciled path %s, want %s", eff, u.Attrs.ASPath)
	}
}

func TestUnknownAttrPreserved(t *testing.T) {
	u := testUpdate(t)
	u.Attrs.Unknown = []RawAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Value: []byte{1, 2, 3}}}
	enc := EncodeUpdate(u, 4)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs.Unknown) != 1 || got.Attrs.Unknown[0].Type != 99 {
		t.Fatalf("unknown attr lost: %+v", got.Attrs.Unknown)
	}
	if !reflect.DeepEqual(got.Attrs.Unknown[0].Value, []byte{1, 2, 3}) {
		t.Errorf("unknown attr value: %v", got.Attrs.Unknown[0].Value)
	}
}

func TestExtendedLengthAttr(t *testing.T) {
	// >255 bytes of communities forces the extended-length encoding.
	var cs Communities
	for i := 0; i < 100; i++ {
		cs = append(cs, NewCommunity(uint16(i+1), uint16(i)))
	}
	u := &Update{Attrs: PathAttributes{Communities: cs}, NLRI: []netip.Prefix{mustPrefix(t, "10.0.0.0/8")}}
	enc := EncodeUpdate(u, 4)
	got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs.Communities) != 100 {
		t.Errorf("got %d communities, want 100", len(got.Attrs.Communities))
	}
}

func TestFSMStateString(t *testing.T) {
	if FSMState(StateEstablished).String() != "Established" {
		t.Error("Established name wrong")
	}
	if FSMState(42).String() != "State(42)" {
		t.Error("unknown state format wrong")
	}
}

func TestWireErrorContext(t *testing.T) {
	_, _, err := DecodeNLRI([]byte{24, 1}, AFIIPv4)
	var we *WireError
	if !errors.As(err, &we) {
		t.Fatalf("expected *WireError, got %T", err)
	}
	if we.Op != "nlri" {
		t.Errorf("Op = %q", we.Op)
	}
	if we.Error() == "" {
		t.Error("empty error string")
	}
}

// quickPrefix generates a random valid IPv4 prefix.
func quickPrefix(r *rand.Rand) netip.Prefix {
	bits := r.Intn(33)
	var raw [4]byte
	r.Read(raw[:])
	p, _ := netip.AddrFrom4(raw).Prefix(bits)
	return p
}

func TestQuickNLRIRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		want := quickPrefix(r)
		enc := AppendNLRI(nil, want)
		got, n, err := DecodeNLRI(enc, AFIIPv4)
		return err == nil && n == len(enc) && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickASPathRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nseg := 1 + r.Intn(4)
		var p ASPath
		for i := 0; i < nseg; i++ {
			typ := uint8(SegmentASSequence)
			if r.Intn(4) == 0 {
				typ = SegmentASSet
			}
			n := 1 + r.Intn(6)
			asns := make([]uint32, n)
			for j := range asns {
				asns[j] = r.Uint32()
			}
			p.Segments = append(p.Segments, PathSegment{Type: typ, ASNs: asns})
		}
		enc := AppendASPath(nil, p, 4)
		got, err := new(Decoder).DecodeASPath(enc, 4)
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		origin := uint8(r.Intn(3))
		u := &Update{Attrs: PathAttributes{Origin: &origin}}
		u.Attrs.ASPath = SequencePath(r.Uint32()%1e6+1, r.Uint32()%1e6+1)
		u.Attrs.HasASPath = true
		u.Attrs.NextHop = netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 1})
		for i := 0; i < r.Intn(5); i++ {
			u.NLRI = append(u.NLRI, quickPrefix(r))
		}
		for i := 0; i < r.Intn(3); i++ {
			u.Withdrawn = append(u.Withdrawn, quickPrefix(r))
		}
		enc := EncodeUpdate(u, 4)
		got, err := new(Decoder).DecodeUpdateMessage(enc, 4)
		if err != nil {
			return false
		}
		if len(got.NLRI) != len(u.NLRI) || len(got.Withdrawn) != len(u.Withdrawn) {
			return false
		}
		return got.Attrs.ASPath.Equal(u.Attrs.ASPath)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeAttributesTruncation(t *testing.T) {
	// Every truncation point of a valid attribute block must error,
	// never panic.
	u := testUpdate(t)
	full := AppendAttributes(nil, &u.Attrs, 4)
	for cut := 1; cut < len(full); cut++ {
		if a, err := new(Decoder).DecodeAttributes(full[:cut], 4); err == nil {
			// Truncation at an attribute boundary parses a shorter
			// valid block; only intra-attribute cuts must fail. Verify
			// re-encode differs instead.
			re := AppendAttributes(nil, a, 4)
			if len(re) == len(full) {
				t.Fatalf("cut %d silently decoded whole block", cut)
			}
		}
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	origin := uint8(OriginIGP)
	u := &Update{
		Attrs: PathAttributes{
			Origin:      &origin,
			ASPath:      SequencePath(64512, 701, 174, 3356, 1299),
			HasASPath:   true,
			NextHop:     netip.MustParseAddr("192.0.2.1"),
			Communities: Communities{NewCommunity(701, 1), NewCommunity(701, 2)},
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	}
	enc := EncodeUpdate(u, 4)
	var dec Decoder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeUpdateMessage(enc, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	u := testUpdate(&testing.T{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeUpdate(u, 4)
	}
}
