package bgp

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// Fuzz harnesses for the attribute-block and UPDATE-body decoders, the
// two entry points through which untrusted archive bytes reach the
// Decoder's scratch arenas. Each input is decoded twice — once through
// the allocating reference decoders in reference_test.go and once
// through a reused Decoder — and the two must agree on error-ness
// and, on success, on every decoded field; afterwards the
// arena-retention invariant is checked by decoding more input through
// the same Decoder and re-reading values retained from the first
// decode. Seed corpora live under testdata/fuzz (regenerated by
// TestGenerateFuzzCorpus) and replay as ordinary cases on plain
// `go test`; `go test -fuzz` explores from there (10s each in CI).

// fuzzAttrSeeds returns attribute-block seeds: valid blocks in both AS
// widths, truncated tails, and bad flag/length combinations.
func fuzzAttrSeeds() [][]byte {
	var seeds [][]byte
	origin := uint8(0)
	med := uint32(10)
	for _, asSize := range []int{2, 4} {
		full := AppendAttributes(nil, &PathAttributes{
			Origin:    &origin,
			ASPath:    ASPath{Segments: []PathSegment{{Type: SegmentASSequence, ASNs: []uint32{701, 174}}, {Type: SegmentASSet, ASNs: []uint32{4777, 9318}}}},
			HasASPath: true,
			NextHop:   netip.MustParseAddr("192.0.2.254"),
			MED:       &med,
			Aggregator: &Aggregator{
				ASN: 65000, Addr: netip.MustParseAddr("192.0.2.1"),
			},
			Communities: Communities{NewCommunity(701, 120), NewCommunity(3356, 2)},
			MPReach: &MPReach{
				AFI: AFIIPv6, SAFI: 1,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2001:db8:1::/48")},
			},
			Unknown: []RawAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Value: []byte{1, 2, 3}}},
		}, asSize)
		seeds = append(seeds, full, full[:len(full)-3], full[:len(full)/2])
	}
	// AS4 path above the 16-bit range (forces AS4_PATH emission at
	// asSize 2) exercises the RFC 6793 reconciliation path.
	seeds = append(seeds, AppendAttributes(nil, &PathAttributes{
		ASPath:    SequencePath(65001, 397143, 13335),
		HasASPath: true,
	}, 2))
	seeds = append(seeds,
		[]byte{FlagTransitive, AttrOrigin, 2, 0xAA, 0xBB},       // origin with bad length
		[]byte{FlagTransitive, AttrNextHop, 3, 1, 2, 3},         // short next hop
		[]byte{FlagTransitive | FlagExtended, AttrASPath, 0xFF}, // extended flag, truncated length
		[]byte{FlagOptional, AttrCommunities, 6, 0, 1, 2, 3, 4, 5},
		[]byte{FlagTransitive, AttrASPath, 4, SegmentASSequence, 3, 0, 1}, // segment count past the value
		[]byte{FlagOptional, AttrMPReachNLRI, 5, 0, 2, 1, 7, 0},           // bogus next-hop length
	)
	return seeds
}

// fuzzUpdateSeeds returns UPDATE-body seeds: valid bodies in both AS
// widths, bodies with withdrawals and MP attributes, and framing edge
// cases (truncated withdrawn/attr sections, lengths past the buffer).
func fuzzUpdateSeeds() [][]byte {
	var seeds [][]byte
	for _, asSize := range []int{2, 4} {
		u := &Update{
			Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.1.0.0/16")},
			Attrs: PathAttributes{
				ASPath:      SequencePath(65000, 701, 174),
				HasASPath:   true,
				NextHop:     netip.MustParseAddr("192.0.2.254"),
				Communities: Communities{NewCommunity(701, 120)},
			},
			NLRI: []netip.Prefix{netip.MustParsePrefix("10.2.0.0/16"), netip.MustParsePrefix("10.3.128.0/17")},
		}
		body := AppendUpdateBody(nil, u, asSize)
		seeds = append(seeds, body, body[:len(body)-1], body[:2])
	}
	seeds = append(seeds,
		[]byte{},           // too short for the withdrawn length
		[]byte{0x00, 0x04}, // withdrawn length past the buffer
		[]byte{0x00, 0x00, 0x00, 0x09, 0x40, AttrOrigin, 1, 0}, // attr length past the buffer
	)
	return seeds
}

func ptrEqual[T comparable](a, b *T) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

func prefixesEqual(a, b []netip.Prefix) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pathsEqual is ASPath.Equal plus nil-vs-empty strictness, so the
// Decoder cannot silently diverge from the reference's slice
// semantics.
func pathsEqual(a, b ASPath) bool {
	if (a.Segments == nil) != (b.Segments == nil) {
		return false
	}
	if !a.Equal(b) {
		return false
	}
	for i := range a.Segments {
		if (a.Segments[i].ASNs == nil) != (b.Segments[i].ASNs == nil) {
			return false
		}
	}
	return true
}

func communitiesEqual(a, b Communities) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func attrsEqual(a, b *PathAttributes) bool {
	if !ptrEqual(a.Origin, b.Origin) || a.HasASPath != b.HasASPath ||
		a.NextHop != b.NextHop || !ptrEqual(a.MED, b.MED) ||
		!ptrEqual(a.LocalPref, b.LocalPref) || a.AtomicAggregate != b.AtomicAggregate ||
		!ptrEqual(a.Aggregator, b.Aggregator) {
		return false
	}
	if !pathsEqual(a.ASPath, b.ASPath) || !communitiesEqual(a.Communities, b.Communities) {
		return false
	}
	if (a.MPReach == nil) != (b.MPReach == nil) {
		return false
	}
	if a.MPReach != nil {
		x, y := a.MPReach, b.MPReach
		if x.AFI != y.AFI || x.SAFI != y.SAFI || x.NextHop != y.NextHop ||
			x.LinkLocal != y.LinkLocal || !prefixesEqual(x.NLRI, y.NLRI) {
			return false
		}
	}
	if (a.MPUnreach == nil) != (b.MPUnreach == nil) {
		return false
	}
	if a.MPUnreach != nil {
		x, y := a.MPUnreach, b.MPUnreach
		if x.AFI != y.AFI || x.SAFI != y.SAFI || !prefixesEqual(x.NLRI, y.NLRI) {
			return false
		}
	}
	if (a.AS4Path == nil) != (b.AS4Path == nil) {
		return false
	}
	if a.AS4Path != nil && !pathsEqual(*a.AS4Path, *b.AS4Path) {
		return false
	}
	if (a.Unknown == nil) != (b.Unknown == nil) || len(a.Unknown) != len(b.Unknown) {
		return false
	}
	for i := range a.Unknown {
		x, y := a.Unknown[i], b.Unknown[i]
		if x.Flags != y.Flags || x.Type != y.Type || !bytes.Equal(x.Value, y.Value) {
			return false
		}
	}
	return true
}

func errStringsAgree(t *testing.T, what string, refErr, decErr error) bool {
	t.Helper()
	if (refErr == nil) != (decErr == nil) {
		t.Fatalf("%s: reference err=%v, decoder err=%v", what, refErr, decErr)
	}
	if refErr != nil {
		if refErr.Error() != decErr.Error() {
			t.Fatalf("%s: reference err %q, decoder err %q", what, refErr, decErr)
		}
		return false
	}
	return true
}

// snapshotPath deep-copies an AS path preserving nil-vs-empty slice
// identity exactly (ASPath.Clone normalises nil Segments to empty,
// which would trip pathsEqual's strictness).
func snapshotPath(p ASPath) ASPath {
	out := p
	if p.Segments != nil {
		out.Segments = make([]PathSegment, len(p.Segments))
		for i, s := range p.Segments {
			out.Segments[i] = s
			if s.ASNs != nil {
				out.Segments[i].ASNs = append(make([]uint32, 0, len(s.ASNs)), s.ASNs...)
			}
		}
	}
	return out
}

// snapshotComms deep-copies a community list, preserving nil-ness.
func snapshotComms(c Communities) Communities {
	if c == nil {
		return nil
	}
	return append(make(Communities, 0, len(c)), c...)
}

// checkPathRetention decodes churn input through dec and verifies that
// a path+communities pair retained from an earlier decode on the same
// decoder still reads back identically (the arenas are append-only;
// reuse must never touch referenced memory).
func checkPathRetention(t *testing.T, dec *Decoder, data []byte, asSize int, keptPath ASPath, wantPath ASPath, keptComm, wantComm Communities) {
	t.Helper()
	churn := asSize
	for i := 0; i < 3; i++ {
		churn ^= 6 // alternate 2 <-> 4: exercises both AS widths
		dec.DecodeAttributes(data, churn)
		dec.DecodeUpdateBody(data, churn)
	}
	if !pathsEqual(keptPath, wantPath) || !keptPath.Equal(wantPath) {
		t.Fatalf("retained AS path changed after arena reuse: %q, want %q", keptPath, wantPath)
	}
	if !communitiesEqual(keptComm, wantComm) {
		t.Fatalf("retained communities changed after arena reuse: %q, want %q", keptComm, wantComm)
	}
}

// TestGenerateFuzzCorpus keeps the checked-in seed corpora under
// testdata/fuzz in sync with fuzzAttrSeeds/fuzzUpdateSeeds: with
// BGP_GEN_FUZZ_CORPUS=1 it rewrites the seed-* entries (crash
// regressions added by `go test -fuzz` keep their hash names and are
// left alone); otherwise it just checks the corpora exist, so a
// deleted directory fails loudly instead of silently shrinking fuzz
// coverage to the f.Add seeds.
func TestGenerateFuzzCorpus(t *testing.T) {
	gen := os.Getenv("BGP_GEN_FUZZ_CORPUS") == "1"
	emit := func(fuzzName string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzName)
		if !gen {
			if _, err := os.Stat(dir); err != nil {
				t.Errorf("seed corpus missing (regenerate with BGP_GEN_FUZZ_CORPUS=1): %v", err)
			}
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			for _, as4 := range []bool{false, true} {
				body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nbool(%v)\n",
					strconv.Quote(string(s)), as4)
				name := fmt.Sprintf("seed-%02d-as4-%v", i, as4)
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	emit("FuzzDecodeAttributes", fuzzAttrSeeds())
	emit("FuzzDecodeUpdateBody", fuzzUpdateSeeds())
}

// FuzzDecodeAttributes pins Decoder.DecodeAttributes to the
// decodeAttributes reference: identical error strings, identical
// decoded fields, and retained arena-backed outputs that survive
// decoder reuse.
func FuzzDecodeAttributes(f *testing.F) {
	for _, s := range fuzzAttrSeeds() {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		asSize := 2
		if as4 {
			asSize = 4
		}
		ref, refErr := decodeAttributes(data, asSize)
		var dec Decoder
		// A pre-decode of the same input dirties the scratch, so the
		// compared decode also proves per-call resets are complete.
		dec.DecodeAttributes(data, 6-asSize)
		got, gotErr := dec.DecodeAttributes(data, asSize)
		if !errStringsAgree(t, "DecodeAttributes", refErr, gotErr) {
			return
		}
		if !attrsEqual(&ref, got) {
			t.Fatalf("decoder result differs from reference\nref: %+v\ngot: %+v", ref, *got)
		}
		checkPathRetention(t, &dec, data, asSize,
			got.ASPath, snapshotPath(got.ASPath), got.Communities, snapshotComms(got.Communities))
	})
}

// FuzzDecodeUpdateBody pins Decoder.DecodeUpdateBody to the
// decodeUpdateBody reference the same way, through the UPDATE framing
// layer (withdrawn-routes and attribute length fields included).
func FuzzDecodeUpdateBody(f *testing.F) {
	for _, s := range fuzzUpdateSeeds() {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, as4 bool) {
		asSize := 2
		if as4 {
			asSize = 4
		}
		ref, refErr := decodeUpdateBody(data, asSize)
		var dec Decoder
		dec.DecodeUpdateBody(data, 6-asSize)
		got, gotErr := dec.DecodeUpdateBody(data, asSize)
		if !errStringsAgree(t, "DecodeUpdateBody", refErr, gotErr) {
			return
		}
		if !prefixesEqual(ref.Withdrawn, got.Withdrawn) || !prefixesEqual(ref.NLRI, got.NLRI) {
			t.Fatalf("NLRI lists differ\nref: %+v\ngot: %+v", ref, *got)
		}
		if !attrsEqual(&ref.Attrs, &got.Attrs) {
			t.Fatalf("attributes differ\nref: %+v\ngot: %+v", ref.Attrs, got.Attrs)
		}
		checkPathRetention(t, &dec, data, asSize,
			got.Attrs.ASPath, snapshotPath(got.Attrs.ASPath), got.Attrs.Communities, snapshotComms(got.Attrs.Communities))
	})
}
