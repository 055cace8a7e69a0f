package bgp

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
)

// Community is an RFC 1997 BGP community value: the high 16 bits
// conventionally identify the AS that defined the community, the low
// 16 bits the local meaning.
type Community uint32

// NewCommunity builds a community from its AS and value halves.
func NewCommunity(asn, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// ASN returns the high 16 bits, conventionally the defining AS.
func (c Community) ASN() uint16 { return uint16(c >> 16) }

// Value returns the low 16 bits.
func (c Community) Value() uint16 { return uint16(c & 0xFFFF) }

// String renders the community in the canonical "asn:value" form.
func (c Community) String() string {
	var buf [11]byte // "65535:65535"
	return string(c.AppendText(buf[:0]))
}

// AppendText appends the "asn:value" form to dst and returns the
// extended slice.
//
//bgp:hotpath
func (c Community) AppendText(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(c.ASN()), 10)
	dst = append(dst, ':')
	return strconv.AppendUint(dst, uint64(c.Value()), 10)
}

// ParseCommunity parses the "asn:value" form produced by String.
func ParseCommunity(s string) (Community, error) {
	a, v, ok := strings.Cut(s, ":")
	if !ok {
		return 0, wireErr("community", 0, ErrBadAttr)
	}
	asn, err := strconv.ParseUint(a, 10, 16)
	if err != nil {
		return 0, wireErr("community", 0, ErrBadAttr)
	}
	val, err := strconv.ParseUint(v, 10, 16)
	if err != nil {
		return 0, wireErr("community", 0, ErrBadAttr)
	}
	return NewCommunity(uint16(asn), uint16(val)), nil
}

// Communities is the ordered list of community values from a
// COMMUNITIES attribute.
type Communities []Community

// String renders the list space-separated in bgpdump style.
func (cs Communities) String() string {
	var buf [128]byte
	return string(cs.AppendText(buf[:0]))
}

// AppendText appends the space-separated String rendering of the list
// to dst and returns the extended slice.
//
//bgp:hotpath
func (cs Communities) AppendText(dst []byte) []byte {
	for i, c := range cs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = c.AppendText(dst)
	}
	return dst
}

// Contains reports whether c is present.
func (cs Communities) Contains(c Community) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// ContainsAny reports whether any community in set is present.
func (cs Communities) ContainsAny(set []Community) bool {
	for _, c := range set {
		if cs.Contains(c) {
			return true
		}
	}
	return false
}

// UniqueASNs returns the sorted distinct AS identifiers (high halves)
// appearing in the list, as used by the Figure 5d community-diversity
// analysis.
func (cs Communities) UniqueASNs() []uint16 {
	seen := make(map[uint16]struct{}, len(cs))
	for _, c := range cs {
		seen[c.ASN()] = struct{}{}
	}
	out := make([]uint16, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a copy of the list.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	return append(Communities(nil), cs...)
}

// AppendCommunities appends the wire encoding of cs to dst.
func AppendCommunities(dst []byte, cs Communities) []byte {
	for _, c := range cs {
		dst = binary.BigEndian.AppendUint32(dst, uint32(c))
	}
	return dst
}
