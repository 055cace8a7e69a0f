package core

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/prefixtrie"
)

// PrefixMatch selects how a prefix filter compares the elem prefix
// against the filter prefix, following bgpreader's filter semantics.
type PrefixMatch int

// Prefix match modes.
const (
	// MatchAny accepts elems whose prefix overlaps the filter prefix
	// in either direction (default; "-k" in bgpreader).
	MatchAny PrefixMatch = iota
	// MatchExact accepts only the identical prefix.
	MatchExact
	// MatchMoreSpecific accepts the filter prefix and anything inside
	// it (sub-prefixes).
	MatchMoreSpecific
	// MatchLessSpecific accepts the filter prefix and anything
	// containing it.
	MatchLessSpecific
)

// PrefixFilter pairs a prefix with its match mode.
type PrefixFilter struct {
	Prefix netip.Prefix
	Match  PrefixMatch
}

// Matches reports whether the elem prefix p satisfies the filter.
func (f PrefixFilter) Matches(p netip.Prefix) bool {
	fp := f.Prefix.Masked()
	p = p.Masked()
	if fp.Addr().Is4() != p.Addr().Is4() {
		return false
	}
	covers := fp.Bits() <= p.Bits() && fp.Contains(p.Addr())
	covered := p.Bits() <= fp.Bits() && p.Contains(fp.Addr())
	switch f.Match {
	case MatchExact:
		return fp == p
	case MatchMoreSpecific:
		return covers
	case MatchLessSpecific:
		return covered
	default:
		return covers || covered
	}
}

// CommunityFilter matches community values with optional wildcards on
// either half, as in the paper's RTBH case study where filters like
// "3356:9999" or "701:*" select black-holing communities.
type CommunityFilter struct {
	ASN   *uint16 // nil matches any AS half
	Value *uint16 // nil matches any value half
}

// ParseCommunityFilter parses "asn:value" where either side may be
// "*".
func ParseCommunityFilter(s string) (CommunityFilter, error) {
	a, v, ok := strings.Cut(s, ":")
	if !ok {
		return CommunityFilter{}, fmt.Errorf("core: bad community filter %q", s)
	}
	var f CommunityFilter
	if a != "*" {
		n, err := strconv.ParseUint(a, 10, 16)
		if err != nil {
			return CommunityFilter{}, fmt.Errorf("core: bad community filter %q: %w", s, err)
		}
		asn := uint16(n)
		f.ASN = &asn
	}
	if v != "*" {
		n, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return CommunityFilter{}, fmt.Errorf("core: bad community filter %q: %w", s, err)
		}
		val := uint16(n)
		f.Value = &val
	}
	return f, nil
}

// Matches reports whether community c satisfies the filter.
func (f CommunityFilter) Matches(c bgp.Community) bool {
	if f.ASN != nil && c.ASN() != *f.ASN {
		return false
	}
	if f.Value != nil && c.Value() != *f.Value {
		return false
	}
	return true
}

// MatchesAny reports whether any community in cs satisfies the filter.
func (f CommunityFilter) MatchesAny(cs bgp.Communities) bool {
	for _, c := range cs {
		if f.Matches(c) {
			return true
		}
	}
	return false
}

// Filters defines a BGP data stream (§3.3.1): which collector
// projects, collectors and dump types to read, the time interval, and
// content predicates applied to individual elems. The zero value
// matches everything historically unbounded; set Start/End (or Live)
// to bound the interval.
type Filters struct {
	// Meta-data filters (select dump files).
	Projects   []string
	Collectors []string
	DumpTypes  []DumpType
	// Start and End bound the record timestamps. A zero End with
	// Live=false means "up to the newest available data"; Live mode
	// never ends (interval end -1 in the C API).
	Start time.Time
	End   time.Time
	Live  bool
	// Elem content filters.
	ElemTypes      []ElemType
	PeerASNs       []uint32
	OriginASNs     []uint32
	ASPathContains []uint32
	Prefixes       []PrefixFilter
	Communities    []CommunityFilter
	// IPVersions restricts elems by the IP version of their prefix (4
	// and/or 6, the BGPStream v2 "ipversion" term). Elems without a
	// prefix (peer-state) are excluded when set, mirroring the prefix
	// filters.
	IPVersions []int
}

// MatchRecordTime reports whether a record timestamp falls inside the
// configured interval.
func (f *Filters) MatchRecordTime(ts time.Time) bool {
	if !f.Start.IsZero() && ts.Before(f.Start) {
		return false
	}
	if !f.End.IsZero() && !f.Live && ts.After(f.End) {
		return false
	}
	return true
}

// CompiledFilters is the immutable, query-optimised form of Filters
// used on the stream hot paths (per dump meta, per pushed record, per
// elem): string and scalar dimensions become hash sets, prefix filters
// are indexed in radix tables. Compile once with CompileFilters and
// reuse against any number of records.
type CompiledFilters struct {
	src        Filters
	projects   map[string]bool
	collectors map[string]bool
	dumpTypes  map[DumpType]bool
	elemTypes  map[ElemType]bool
	peerASNs   map[uint32]bool
	originASNs map[uint32]bool
	pathASNs   map[uint32]bool
	// One table per match mode; MatchAny entries live in both
	// direction tables.
	exact        *prefixtrie.Table[struct{}]
	moreSpecific *prefixtrie.Table[struct{}] // filter covers elem
	lessSpecific *prefixtrie.Table[struct{}] // elem covers filter
	anyOverlap   *prefixtrie.Table[struct{}]
	hasPrefix    bool
	// Community filters split into exact (asn, value) pairs, one-sided
	// wildcards, and the match-anything "*:*" flag, so per-elem
	// matching is one set probe per community instead of a scan over
	// every filter.
	commExact map[bgp.Community]bool
	commASN   map[uint16]bool // "asn:*"
	commValue map[uint16]bool // "*:value"
	commAll   bool            // "*:*"
	hasComm   bool
	// IP-version filter as two booleans: the per-elem check stays two
	// branches, no lookups, on the 0-alloc hot path.
	hasIPVersion bool
	wantV4       bool
	wantV6       bool
}

// CompileFilters builds the query-optimised form of f.
func CompileFilters(f Filters) *CompiledFilters {
	c := &CompiledFilters{src: f}
	c.projects = stringSet(f.Projects)
	c.collectors = stringSet(f.Collectors)
	if len(f.DumpTypes) > 0 {
		c.dumpTypes = make(map[DumpType]bool, len(f.DumpTypes))
		for _, t := range f.DumpTypes {
			c.dumpTypes[t] = true
		}
	}
	if len(f.ElemTypes) > 0 {
		c.elemTypes = make(map[ElemType]bool, len(f.ElemTypes))
		for _, t := range f.ElemTypes {
			c.elemTypes[t] = true
		}
	}
	c.peerASNs = asnSet(f.PeerASNs)
	c.originASNs = asnSet(f.OriginASNs)
	c.pathASNs = asnSet(f.ASPathContains)
	if len(f.Prefixes) > 0 {
		c.hasPrefix = true
		c.exact = prefixtrie.New[struct{}]()
		c.moreSpecific = prefixtrie.New[struct{}]()
		c.lessSpecific = prefixtrie.New[struct{}]()
		c.anyOverlap = prefixtrie.New[struct{}]()
		for _, pf := range f.Prefixes {
			p := pf.Prefix.Masked()
			switch pf.Match {
			case MatchExact:
				c.exact.Insert(p, struct{}{})
			case MatchMoreSpecific:
				c.moreSpecific.Insert(p, struct{}{})
			case MatchLessSpecific:
				c.lessSpecific.Insert(p, struct{}{})
			default:
				c.anyOverlap.Insert(p, struct{}{})
			}
		}
	}
	if len(f.Communities) > 0 {
		c.hasComm = true
		for _, cf := range f.Communities {
			switch {
			case cf.ASN == nil && cf.Value == nil:
				c.commAll = true
			case cf.ASN != nil && cf.Value != nil:
				if c.commExact == nil {
					c.commExact = map[bgp.Community]bool{}
				}
				c.commExact[bgp.NewCommunity(*cf.ASN, *cf.Value)] = true
			case cf.ASN != nil:
				if c.commASN == nil {
					c.commASN = map[uint16]bool{}
				}
				c.commASN[*cf.ASN] = true
			default:
				if c.commValue == nil {
					c.commValue = map[uint16]bool{}
				}
				c.commValue[*cf.Value] = true
			}
		}
	}
	for _, v := range f.IPVersions {
		// Out-of-domain values are ignored (the filter language only
		// admits 4 and 6); compiling them into a match-nothing filter
		// would silently empty the stream.
		switch v {
		case 4:
			c.hasIPVersion, c.wantV4 = true, true
		case 6:
			c.hasIPVersion, c.wantV6 = true, true
		}
	}
	return c
}

func stringSet(xs []string) map[string]bool {
	if len(xs) == 0 {
		return nil
	}
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// MatchMeta reports whether a dump file passes the meta-data filters,
// including the interval test: a dump is relevant when its covered
// interval intersects [Start, End]. A zero dump Time means "unknown"
// (the single-file interface): such dumps always pass the interval
// test and rely on per-record time filtering instead.
func (c *CompiledFilters) MatchMeta(m archive.DumpMeta) bool {
	if !c.matchTags(m.Project, m.Collector, m.Type) {
		return false
	}
	if m.Time.IsZero() {
		return true
	}
	f := &c.src
	if !f.Start.IsZero() && m.Time.Add(m.Duration).Before(f.Start) {
		return false
	}
	return f.End.IsZero() || f.Live || !m.Time.After(f.End)
}

// matchTags applies the project/collector/dump-type sets; push-mode
// streams use it per pushed record against the record's feed tags.
//
//bgp:hotpath
func (c *CompiledFilters) matchTags(project, collector string, t DumpType) bool {
	if c.projects != nil && !c.projects[project] {
		return false
	}
	if c.collectors != nil && !c.collectors[collector] {
		return false
	}
	if c.dumpTypes != nil && !c.dumpTypes[t] {
		return false
	}
	return true
}

func asnSet(asns []uint32) map[uint32]bool {
	if len(asns) == 0 {
		return nil
	}
	m := make(map[uint32]bool, len(asns))
	for _, a := range asns {
		m[a] = true
	}
	return m
}

// MatchElem applies every elem-level predicate.
//
//bgp:hotpath
func (c *CompiledFilters) MatchElem(e *Elem) bool {
	if c.elemTypes != nil && !c.elemTypes[e.Type] {
		return false
	}
	if c.hasIPVersion {
		if !e.Prefix.IsValid() {
			// State elems carry no prefix; version filters exclude them.
			return false
		}
		if e.Prefix.Addr().Is4() {
			if !c.wantV4 {
				return false
			}
		} else if !c.wantV6 {
			return false
		}
	}
	if c.peerASNs != nil && !c.peerASNs[e.PeerASN] {
		return false
	}
	if c.originASNs != nil {
		ok := false
		for _, o := range e.Origins() {
			if c.originASNs[o] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if c.pathASNs != nil {
		ok := false
	scan:
		for _, seg := range e.ASPath.Segments {
			for _, as := range seg.ASNs {
				if c.pathASNs[as] {
					ok = true
					break scan
				}
			}
		}
		if !ok {
			return false
		}
	}
	if c.hasPrefix {
		if !e.Prefix.IsValid() {
			// State elems carry no prefix; prefix filters exclude them.
			return false
		}
		if !c.matchPrefix(e.Prefix) {
			return false
		}
	}
	if c.hasComm {
		ok := false
		for _, cm := range e.Communities {
			if c.commAll || c.commExact[cm] || c.commASN[cm.ASN()] || c.commValue[cm.Value()] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

//bgp:hotpath
func (c *CompiledFilters) matchPrefix(p netip.Prefix) bool {
	p = p.Masked()
	if _, ok := c.exact.Get(p); ok {
		return true
	}
	// moreSpecific: some filter prefix covers p.
	if _, _, ok := c.moreSpecific.LookupPrefix(p); ok {
		return true
	}
	// lessSpecific: p covers some filter prefix.
	covered := false
	//bgp:alloc-ok non-escaping callback: Covered does not retain it, so the closure stays on the stack (FilterMatchElem benches 0 allocs)
	c.lessSpecific.Covered(p, func(netip.Prefix, struct{}) bool {
		covered = true
		return false
	})
	if covered {
		return true
	}
	return c.anyOverlap.OverlapsAny(p)
}
