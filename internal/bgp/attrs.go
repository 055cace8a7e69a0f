package bgp

import (
	"encoding/binary"
	"net/netip"
)

// Aggregator is the AGGREGATOR attribute: the AS and router that
// performed route aggregation.
type Aggregator struct {
	ASN  uint32
	Addr netip.Addr
}

// MPReach holds a decoded MP_REACH_NLRI attribute (RFC 4760): the
// address family, the next hop, and the announced prefixes.
type MPReach struct {
	AFI     uint16
	SAFI    uint8
	NextHop netip.Addr
	// LinkLocal optionally carries the second IPv6 next hop.
	LinkLocal netip.Addr
	NLRI      []netip.Prefix
}

// MPUnreach holds a decoded MP_UNREACH_NLRI attribute: the address
// family and the withdrawn prefixes.
type MPUnreach struct {
	AFI  uint16
	SAFI uint8
	NLRI []netip.Prefix
}

// RawAttr preserves an attribute this package does not interpret.
type RawAttr struct {
	Flags uint8
	Type  uint8
	Value []byte
}

// PathAttributes is the decoded set of path attributes from an UPDATE
// message or a TABLE_DUMP_V2 RIB entry. Optional attributes use
// pointer or nil-able types so presence can be distinguished from zero
// values.
type PathAttributes struct {
	Origin          *uint8
	ASPath          ASPath
	HasASPath       bool
	NextHop         netip.Addr
	MED             *uint32
	LocalPref       *uint32
	AtomicAggregate bool
	Aggregator      *Aggregator
	Communities     Communities
	MPReach         *MPReach
	MPUnreach       *MPUnreach
	AS4Path         *ASPath
	Unknown         []RawAttr
}

// EffectivePath returns the AS path after RFC 6793 AS4_PATH
// reconciliation: when an AS4_PATH is present and no longer than the
// AS_PATH, the trailing segments of AS_PATH are replaced by AS4_PATH.
func (a *PathAttributes) EffectivePath() ASPath {
	if a.AS4Path == nil {
		return a.ASPath
	}
	p2, p4 := a.ASPath, *a.AS4Path
	if p4.Len() > p2.Len() {
		return p2
	}
	keep := p2.Len() - p4.Len()
	var merged ASPath
	remaining := keep
	for _, seg := range p2.Segments {
		if remaining == 0 {
			break
		}
		switch seg.Type {
		case SegmentASSequence, SegmentConfedSequence:
			if len(seg.ASNs) <= remaining {
				merged.Segments = append(merged.Segments, seg)
				remaining -= len(seg.ASNs)
			} else {
				merged.Segments = append(merged.Segments, PathSegment{
					Type: seg.Type, ASNs: seg.ASNs[:remaining],
				})
				remaining = 0
			}
		default:
			merged.Segments = append(merged.Segments, seg)
			remaining--
		}
	}
	merged.Segments = append(merged.Segments, p4.Segments...)
	return coalesceSequences(merged)
}

// coalesceSequences joins adjacent AS_SEQUENCE segments produced by
// splicing so reconciled paths compare equal to natively 4-byte ones.
func coalesceSequences(p ASPath) ASPath {
	var out ASPath
	for _, seg := range p.Segments {
		n := len(out.Segments)
		if seg.Type == SegmentASSequence && n > 0 && out.Segments[n-1].Type == SegmentASSequence {
			prev := &out.Segments[n-1]
			prev.ASNs = append(append([]uint32(nil), prev.ASNs...), seg.ASNs...)
			continue
		}
		out.Segments = append(out.Segments, seg)
	}
	return out
}

// attrHeader describes one attribute's wire framing.
type attrHeader struct {
	flags    uint8
	typ      uint8
	valueOff int
	valueLen int
}

func decodeAttrHeader(buf []byte, off int) (attrHeader, int, error) {
	if len(buf)-off < 3 {
		return attrHeader{}, 0, wireErr("attr", off, ErrTruncated)
	}
	h := attrHeader{flags: buf[off], typ: buf[off+1]}
	n := off + 2
	if h.flags&FlagExtended != 0 {
		if len(buf)-n < 2 {
			return attrHeader{}, 0, wireErr("attr", n, ErrTruncated)
		}
		h.valueLen = int(binary.BigEndian.Uint16(buf[n:]))
		n += 2
	} else {
		h.valueLen = int(buf[n])
		n++
	}
	h.valueOff = n
	if len(buf)-n < h.valueLen {
		return attrHeader{}, 0, wireErr("attr", n, ErrTruncated)
	}
	return h, n + h.valueLen, nil
}

// appendAttr writes one attribute with correct framing, using the
// extended-length encoding automatically when the value exceeds 255
// bytes.
func appendAttr(dst []byte, flags, typ uint8, val []byte) []byte {
	if len(val) > 255 {
		flags |= FlagExtended
		dst = append(dst, flags, typ)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	} else {
		flags &^= FlagExtended
		dst = append(dst, flags, typ, byte(len(val)))
	}
	return append(dst, val...)
}

// AppendAttributes appends the wire encoding of a to dst. asSize
// selects 2- or 4-octet AS_PATH encoding; with asSize == 2 an
// AS4_PATH attribute is emitted automatically when the path contains
// ASNs above 65535 (RFC 6793).
func AppendAttributes(dst []byte, a *PathAttributes, asSize int) []byte {
	var scratch [64]byte
	if a.Origin != nil {
		dst = appendAttr(dst, FlagTransitive, AttrOrigin, []byte{*a.Origin})
	}
	if a.HasASPath {
		body := AppendASPath(scratch[:0], a.ASPath, asSize)
		dst = appendAttr(dst, FlagTransitive, AttrASPath, body)
		if asSize == 2 && pathNeedsAS4(a.ASPath) {
			body4 := AppendASPath(nil, a.ASPath, 4)
			dst = appendAttr(dst, FlagOptional|FlagTransitive, AttrAS4Path, body4)
		}
	}
	if a.NextHop.Is4() {
		b := a.NextHop.As4()
		dst = appendAttr(dst, FlagTransitive, AttrNextHop, b[:])
	}
	if a.MED != nil {
		dst = appendAttr(dst, FlagOptional, AttrMED, binary.BigEndian.AppendUint32(scratch[:0], *a.MED))
	}
	if a.LocalPref != nil {
		dst = appendAttr(dst, FlagTransitive, AttrLocalPref, binary.BigEndian.AppendUint32(scratch[:0], *a.LocalPref))
	}
	if a.AtomicAggregate {
		dst = appendAttr(dst, FlagTransitive, AttrAtomicAggregate, nil)
	}
	if a.Aggregator != nil {
		var body []byte
		if asSize == 2 {
			asn := a.Aggregator.ASN
			if asn > 0xFFFF {
				asn = 23456
			}
			body = binary.BigEndian.AppendUint16(scratch[:0], uint16(asn))
		} else {
			body = binary.BigEndian.AppendUint32(scratch[:0], a.Aggregator.ASN)
		}
		b4 := a.Aggregator.Addr.As4()
		body = append(body, b4[:]...)
		dst = appendAttr(dst, FlagOptional|FlagTransitive, AttrAggregator, body)
	}
	if len(a.Communities) > 0 {
		body := AppendCommunities(nil, a.Communities)
		dst = appendAttr(dst, FlagOptional|FlagTransitive, AttrCommunities, body)
	}
	if a.MPReach != nil {
		dst = appendAttr(dst, FlagOptional, AttrMPReachNLRI, appendMPReach(nil, a.MPReach))
	}
	if a.MPUnreach != nil {
		dst = appendAttr(dst, FlagOptional, AttrMPUnreachNLRI, appendMPUnreach(nil, a.MPUnreach))
	}
	if a.AS4Path != nil && asSize == 2 && !pathNeedsAS4(a.ASPath) {
		body4 := AppendASPath(nil, *a.AS4Path, 4)
		dst = appendAttr(dst, FlagOptional|FlagTransitive, AttrAS4Path, body4)
	}
	for _, raw := range a.Unknown {
		dst = appendAttr(dst, raw.Flags, raw.Type, raw.Value)
	}
	return dst
}

func pathNeedsAS4(p ASPath) bool {
	for _, seg := range p.Segments {
		for _, as := range seg.ASNs {
			if as > 0xFFFF {
				return true
			}
		}
	}
	return false
}

func appendMPReach(dst []byte, mp *MPReach) []byte {
	dst = binary.BigEndian.AppendUint16(dst, mp.AFI)
	dst = append(dst, mp.SAFI)
	switch {
	case mp.LinkLocal.IsValid():
		dst = append(dst, 32)
		a := mp.NextHop.As16()
		dst = append(dst, a[:]...)
		b := mp.LinkLocal.As16()
		dst = append(dst, b[:]...)
	case mp.NextHop.Is4():
		dst = append(dst, 4)
		a := mp.NextHop.As4()
		dst = append(dst, a[:]...)
	default:
		dst = append(dst, 16)
		a := mp.NextHop.As16()
		dst = append(dst, a[:]...)
	}
	dst = append(dst, 0) // reserved
	return AppendNLRIList(dst, mp.NLRI)
}

func appendMPUnreach(dst []byte, mp *MPUnreach) []byte {
	dst = binary.BigEndian.AppendUint16(dst, mp.AFI)
	dst = append(dst, mp.SAFI)
	return AppendNLRIList(dst, mp.NLRI)
}
