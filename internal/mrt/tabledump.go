package mrt

import (
	"encoding/binary"
	"net/netip"

	"github.com/bgpstream-go/bgpstream/internal/bgp"
)

// Peer is one entry of a TABLE_DUMP_V2 PEER_INDEX_TABLE: a vantage
// point whose routes appear in the subsequent RIB records.
type Peer struct {
	BGPID netip.Addr
	IP    netip.Addr
	AS    uint32
}

// PeerIndexTable is the first record of every TABLE_DUMP_V2 RIB dump;
// RIB entries refer to vantage points by index into Peers
// (RFC 6396 §4.3.1).
type PeerIndexTable struct {
	CollectorBGPID netip.Addr
	ViewName       string
	Peers          []Peer
}

// DecodePeerIndexTable decodes a PEER_INDEX_TABLE record body.
func DecodePeerIndexTable(body []byte) (*PeerIndexTable, error) {
	if len(body) < 8 {
		return nil, corrupt("peer index table", bgp.ErrTruncated)
	}
	t := &PeerIndexTable{CollectorBGPID: netip.AddrFrom4([4]byte(body[:4]))}
	nameLen := int(binary.BigEndian.Uint16(body[4:]))
	off := 6
	if len(body)-off < nameLen+2 {
		return nil, corrupt("peer index table", bgp.ErrTruncated)
	}
	t.ViewName = string(body[off : off+nameLen])
	off += nameLen
	count := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	t.Peers = make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(body)-off < 5 {
			return nil, corrupt("peer entry", bgp.ErrTruncated)
		}
		ptype := body[off]
		off++
		p := Peer{BGPID: netip.AddrFrom4([4]byte(body[off : off+4]))}
		off += 4
		afi := uint16(bgp.AFIIPv4)
		if ptype&0x01 != 0 {
			afi = bgp.AFIIPv6
		}
		addr, n, err := decodeAddr(body[off:], afi)
		if err != nil {
			return nil, err
		}
		p.IP = addr
		off += n
		if ptype&0x02 != 0 {
			if len(body)-off < 4 {
				return nil, corrupt("peer entry", bgp.ErrTruncated)
			}
			p.AS = binary.BigEndian.Uint32(body[off:])
			off += 4
		} else {
			if len(body)-off < 2 {
				return nil, corrupt("peer entry", bgp.ErrTruncated)
			}
			p.AS = uint32(binary.BigEndian.Uint16(body[off:]))
			off += 2
		}
		t.Peers = append(t.Peers, p)
	}
	return t, nil
}

// EncodePeerIndexTable produces a PEER_INDEX_TABLE record body.
// Peers are always written with 4-octet AS numbers.
func EncodePeerIndexTable(t *PeerIndexTable) []byte {
	body := appendAddr(nil, t.CollectorBGPID)
	body = binary.BigEndian.AppendUint16(body, uint16(len(t.ViewName)))
	body = append(body, t.ViewName...)
	body = binary.BigEndian.AppendUint16(body, uint16(len(t.Peers)))
	for _, p := range t.Peers {
		ptype := byte(0x02) // 4-octet AS
		if p.IP.Is6() {
			ptype |= 0x01
		}
		body = append(body, ptype)
		body = appendAddr(body, p.BGPID)
		body = appendAddr(body, p.IP)
		body = binary.BigEndian.AppendUint32(body, p.AS)
	}
	return body
}

// RIBEntry is one vantage point's route for a prefix inside a
// TABLE_DUMP_V2 RIB record. Attributes are kept raw and decoded on
// demand: most analyses touch only a subset of prefixes.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime uint32
	Attrs          []byte
}

// DecodeAttrsInto parses the entry's path attributes through dec.
// TABLE_DUMP_V2 attributes always use 4-octet AS numbers (RFC 6396
// §4.3.4). The result follows dec's lifetime contract (valid until
// the next Decode* call on dec).
//
//bgp:hotpath
func (e *RIBEntry) DecodeAttrsInto(dec *bgp.Decoder) (*bgp.PathAttributes, error) {
	return dec.DecodeAttributes(e.Attrs, 4)
}

// RIB is a TABLE_DUMP_V2 RIB_IPV4_UNICAST or RIB_IPV6_UNICAST record:
// every vantage point's best route to one prefix.
type RIB struct {
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
}

// DecodeRIBTo decodes a RIB_IPVx_UNICAST/MULTICAST record body into r,
// reusing r.Entries' backing, so per-reader decode loops allocate
// nothing; afi selects the prefix family and is implied by the record
// subtype. Entry Attrs alias body.
//
//bgp:hotpath
func DecodeRIBTo(r *RIB, body []byte, afi uint16) error {
	if len(body) < 4 {
		return corrupt("rib", bgp.ErrTruncated)
	}
	r.Sequence = binary.BigEndian.Uint32(body)
	r.Prefix = netip.Prefix{}
	off := 4
	prefix, n, err := bgp.DecodeNLRI(body[off:], afi)
	if err != nil {
		return corrupt("rib prefix", err)
	}
	r.Prefix = prefix
	off += n
	if len(body)-off < 2 {
		return corrupt("rib", bgp.ErrTruncated)
	}
	count := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if r.Entries == nil {
		r.Entries = make([]RIBEntry, 0, count) //bgp:alloc-ok first-use backing, reused by later decodes
	} else {
		r.Entries = r.Entries[:0]
	}
	for i := 0; i < count; i++ {
		if len(body)-off < 8 {
			return corrupt("rib entry", bgp.ErrTruncated)
		}
		e := RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(body[off:]),
			OriginatedTime: binary.BigEndian.Uint32(body[off+2:]),
		}
		alen := int(binary.BigEndian.Uint16(body[off+6:]))
		off += 8
		if len(body)-off < alen {
			return corrupt("rib entry attrs", bgp.ErrTruncated)
		}
		e.Attrs = body[off : off+alen]
		off += alen
		r.Entries = append(r.Entries, e)
	}
	return nil
}

// SubtypeForPrefix returns the TABLE_DUMP_V2 unicast RIB subtype for
// the prefix's address family.
func SubtypeForPrefix(p netip.Prefix) uint16 {
	if p.Addr().Is4() {
		return SubtypeRIBIPv4Unicast
	}
	return SubtypeRIBIPv6Unicast
}

// EncodeRIB produces a RIB record body for r.
func EncodeRIB(r *RIB) []byte {
	body := binary.BigEndian.AppendUint32(nil, r.Sequence)
	body = bgp.AppendNLRI(body, r.Prefix)
	body = binary.BigEndian.AppendUint16(body, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		body = binary.BigEndian.AppendUint16(body, e.PeerIndex)
		body = binary.BigEndian.AppendUint32(body, e.OriginatedTime)
		body = binary.BigEndian.AppendUint16(body, uint16(len(e.Attrs)))
		body = append(body, e.Attrs...)
	}
	return body
}

// NewPeerIndexRecord frames a peer index table as a complete record.
func NewPeerIndexRecord(ts uint32, t *PeerIndexTable) Record {
	body := EncodePeerIndexTable(t)
	return Record{
		Header: Header{Timestamp: ts, Type: TypeTableDumpV2, Subtype: SubtypePeerIndexTable, Length: uint32(len(body))},
		Body:   body,
	}
}

// NewRIBRecord frames a RIB record for the appropriate address family.
func NewRIBRecord(ts uint32, r *RIB) Record {
	body := EncodeRIB(r)
	return Record{
		Header: Header{Timestamp: ts, Type: TypeTableDumpV2, Subtype: SubtypeForPrefix(r.Prefix), Length: uint32(len(body))},
		Body:   body,
	}
}

// TableDump is a legacy TABLE_DUMP (v1) record: a single peer's route
// to a single prefix (RFC 6396 §4.2). Only 2-octet AS numbers exist in
// this format.
type TableDump struct {
	ViewNumber     uint16
	Sequence       uint16
	Prefix         netip.Prefix
	Status         uint8
	OriginatedTime uint32
	PeerIP         netip.Addr
	PeerAS         uint16
	Attrs          []byte
}

// DecodeTableDumpTo decodes a TABLE_DUMP record body into td, reusing
// its storage; the header subtype carries the AFI. td.Attrs aliases
// body.
//
//bgp:hotpath
func DecodeTableDumpTo(td *TableDump, body []byte, afi uint16) error {
	addrLen := 4
	if afi == bgp.AFIIPv6 {
		addrLen = 16
	}
	need := 2 + 2 + addrLen + 1 + 1 + 4 + addrLen + 2 + 2
	if len(body) < need {
		return corrupt("table dump", bgp.ErrTruncated)
	}
	*td = TableDump{
		ViewNumber: binary.BigEndian.Uint16(body[0:]),
		Sequence:   binary.BigEndian.Uint16(body[2:]),
	}
	off := 4
	addr, _, err := decodeAddr(body[off:], afi)
	if err != nil {
		return err
	}
	off += addrLen
	bits := int(body[off])
	p, err := addr.Prefix(bits)
	if err != nil {
		return corrupt("table dump prefix", bgp.ErrBadPrefix)
	}
	td.Prefix = p
	off++
	td.Status = body[off]
	off++
	td.OriginatedTime = binary.BigEndian.Uint32(body[off:])
	off += 4
	td.PeerIP, _, err = decodeAddr(body[off:], afi)
	if err != nil {
		return err
	}
	off += addrLen
	td.PeerAS = binary.BigEndian.Uint16(body[off:])
	off += 2
	alen := int(binary.BigEndian.Uint16(body[off:]))
	off += 2
	if len(body)-off < alen {
		return corrupt("table dump attrs", bgp.ErrTruncated)
	}
	td.Attrs = body[off : off+alen]
	return nil
}

// DecodeAttrsInto parses the record's path attributes (2-octet AS
// paths) through dec; the result follows dec's lifetime contract.
//
//bgp:hotpath
func (td *TableDump) DecodeAttrsInto(dec *bgp.Decoder) (*bgp.PathAttributes, error) {
	return dec.DecodeAttributes(td.Attrs, 2)
}

// EncodeTableDump produces a TABLE_DUMP record body and its subtype.
func EncodeTableDump(td *TableDump) (body []byte, subtype uint16) {
	afi := addrAFI(td.Prefix.Addr())
	body = binary.BigEndian.AppendUint16(nil, td.ViewNumber)
	body = binary.BigEndian.AppendUint16(body, td.Sequence)
	body = appendAddr(body, td.Prefix.Addr())
	body = append(body, byte(td.Prefix.Bits()), td.Status)
	body = binary.BigEndian.AppendUint32(body, td.OriginatedTime)
	body = appendAddr(body, td.PeerIP)
	body = binary.BigEndian.AppendUint16(body, td.PeerAS)
	body = binary.BigEndian.AppendUint16(body, uint16(len(td.Attrs)))
	body = append(body, td.Attrs...)
	return body, afi
}
