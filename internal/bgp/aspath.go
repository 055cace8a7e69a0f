package bgp

import (
	"encoding/binary"
	"strconv"
	"strings"
)

// AS path segment type codes (RFC 4271 §4.3, RFC 5065).
const (
	SegmentASSet          = 1
	SegmentASSequence     = 2
	SegmentConfedSequence = 3
	SegmentConfedSet      = 4
)

// PathSegment is one segment of an AS_PATH attribute: an ordered
// AS_SEQUENCE or an unordered AS_SET (or their confederation variants).
type PathSegment struct {
	Type uint8    // SegmentASSet, SegmentASSequence, ...
	ASNs []uint32 // autonomous system numbers in wire order
}

// String renders the segment in the format used by bgpdump: sequences
// as space-separated ASNs, sets as "{1,2,3}".
func (s PathSegment) String() string {
	var buf [64]byte
	return string(s.AppendText(buf[:0]))
}

// AppendText appends the String rendering of the segment to dst and
// returns the extended slice.
//
//bgp:hotpath
func (s PathSegment) AppendText(dst []byte) []byte {
	sep := byte(' ')
	set := s.Type == SegmentASSet || s.Type == SegmentConfedSet
	if set {
		sep = ','
		dst = append(dst, '{')
	}
	for i, as := range s.ASNs {
		if i > 0 {
			dst = append(dst, sep)
		}
		dst = strconv.AppendUint(dst, uint64(as), 10)
	}
	if set {
		dst = append(dst, '}')
	}
	return dst
}

// ASPath is a sequence of path segments as carried in the AS_PATH
// attribute. The zero value is an empty path.
type ASPath struct {
	Segments []PathSegment
}

// String renders the path in bgpdump format, e.g. "701 174 {4777,9318}".
func (p ASPath) String() string {
	var buf [128]byte
	return string(p.AppendText(buf[:0]))
}

// AppendText appends the String rendering of the path to dst and
// returns the extended slice. It is the one AS-path renderer: String
// and the bgpdump line formats are built on it.
//
//bgp:hotpath
func (p ASPath) AppendText(dst []byte) []byte {
	for i, seg := range p.Segments {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = seg.AppendText(dst)
	}
	return dst
}

// Len returns the AS-path length as used in BGP best-path selection:
// each sequence ASN counts 1, each set counts 1 in total.
func (p ASPath) Len() int {
	n := 0
	for _, seg := range p.Segments {
		switch seg.Type {
		case SegmentASSequence, SegmentConfedSequence:
			n += len(seg.ASNs)
		default:
			n++
		}
	}
	return n
}

// Origin returns the origin AS of the path: the last ASN of the final
// segment. For paths ending in an AS_SET the set members are returned
// (a multi-origin route). The boolean reports whether an origin exists.
func (p ASPath) Origin() ([]uint32, bool) {
	if len(p.Segments) == 0 {
		return nil, false
	}
	last := p.Segments[len(p.Segments)-1]
	if len(last.ASNs) == 0 {
		return nil, false
	}
	switch last.Type {
	case SegmentASSet, SegmentConfedSet:
		return last.ASNs, true
	default:
		return last.ASNs[len(last.ASNs)-1:], true
	}
}

// First returns the leftmost ASN of the path (the neighbour that
// advertised the route) and whether one exists.
func (p ASPath) First() (uint32, bool) {
	for _, seg := range p.Segments {
		if len(seg.ASNs) > 0 {
			return seg.ASNs[0], true
		}
	}
	return 0, false
}

// FlattenUnique returns all distinct ASNs along the path, preserving
// first-appearance order. Useful for adjacency extraction.
func (p ASPath) FlattenUnique() []uint32 {
	seen := make(map[uint32]struct{}, 8)
	var out []uint32
	for _, seg := range p.Segments {
		for _, as := range seg.ASNs {
			if _, ok := seen[as]; ok {
				continue
			}
			seen[as] = struct{}{}
			out = append(out, as)
		}
	}
	return out
}

// Equal reports whether two paths have identical segment structure.
func (p ASPath) Equal(q ASPath) bool {
	if len(p.Segments) != len(q.Segments) {
		return false
	}
	for i := range p.Segments {
		a, b := p.Segments[i], q.Segments[i]
		if a.Type != b.Type || len(a.ASNs) != len(b.ASNs) {
			return false
		}
		for j := range a.ASNs {
			if a.ASNs[j] != b.ASNs[j] {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the path.
func (p ASPath) Clone() ASPath {
	out := ASPath{Segments: make([]PathSegment, len(p.Segments))}
	for i, seg := range p.Segments {
		out.Segments[i] = PathSegment{Type: seg.Type, ASNs: append([]uint32(nil), seg.ASNs...)}
	}
	return out
}

// SequencePath builds an ASPath consisting of a single AS_SEQUENCE.
// It is the common case for synthetic route generation.
func SequencePath(asns ...uint32) ASPath {
	return ASPath{Segments: []PathSegment{{Type: SegmentASSequence, ASNs: asns}}}
}

// DecodeASPath decodes an AS_PATH attribute body. asSize must be 2 or 4
// (octets per ASN): BGP4MP MESSAGE records carry 2-octet paths unless
// the AS4 subtype is used, while TABLE_DUMP_V2 RIB entries always carry
// 4-octet paths (RFC 6396 §4.3.4).
func DecodeASPath(buf []byte, asSize int) (ASPath, error) {
	var path ASPath
	off := 0
	for off < len(buf) {
		if len(buf)-off < 2 {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		segType := buf[off]
		count := int(buf[off+1])
		off += 2
		need := count * asSize
		if len(buf)-off < need {
			return ASPath{}, wireErr("as-path", off, ErrTruncated)
		}
		seg := PathSegment{Type: segType, ASNs: make([]uint32, count)}
		for i := 0; i < count; i++ {
			if asSize == 2 {
				seg.ASNs[i] = uint32(binary.BigEndian.Uint16(buf[off:]))
			} else {
				seg.ASNs[i] = binary.BigEndian.Uint32(buf[off:])
			}
			off += asSize
		}
		path.Segments = append(path.Segments, seg)
	}
	return path, nil
}

// AppendASPath appends the wire encoding of path to dst using asSize
// (2 or 4) octets per ASN. Segments longer than 255 ASNs are split.
// When encoding with 2-octet ASNs, values above 65535 are replaced by
// AS_TRANS (23456) per RFC 6793.
func AppendASPath(dst []byte, path ASPath, asSize int) []byte {
	const asTrans = 23456
	for _, seg := range path.Segments {
		asns := seg.ASNs
		for len(asns) > 0 {
			n := len(asns)
			if n > 255 {
				n = 255
			}
			dst = append(dst, seg.Type, byte(n))
			for _, as := range asns[:n] {
				if asSize == 2 {
					if as > 0xFFFF {
						as = asTrans
					}
					dst = binary.BigEndian.AppendUint16(dst, uint16(as))
				} else {
					dst = binary.BigEndian.AppendUint32(dst, as)
				}
			}
			asns = asns[n:]
		}
	}
	return dst
}

// ParseASPathString parses the bgpdump textual representation produced
// by ASPath.String, accepting sequences ("1 2 3") and sets ("{4,5}").
// It is the inverse used by tests and by CSV-based data interfaces.
func ParseASPathString(s string) (ASPath, error) {
	var path ASPath
	fields := strings.Fields(s)
	var seq []uint32
	flush := func() {
		if len(seq) > 0 {
			path.Segments = append(path.Segments, PathSegment{Type: SegmentASSequence, ASNs: seq})
			seq = nil
		}
	}
	for _, f := range fields {
		if strings.HasPrefix(f, "{") {
			flush()
			inner := strings.TrimSuffix(strings.TrimPrefix(f, "{"), "}")
			var set []uint32
			if inner != "" {
				for _, tok := range strings.Split(inner, ",") {
					v, err := strconv.ParseUint(tok, 10, 32)
					if err != nil {
						return ASPath{}, wireErr("as-path-string", 0, ErrBadAttr)
					}
					set = append(set, uint32(v))
				}
			}
			path.Segments = append(path.Segments, PathSegment{Type: SegmentASSet, ASNs: set})
			continue
		}
		v, err := strconv.ParseUint(f, 10, 32)
		if err != nil {
			return ASPath{}, wireErr("as-path-string", 0, ErrBadAttr)
		}
		seq = append(seq, uint32(v))
	}
	flush()
	return path, nil
}
