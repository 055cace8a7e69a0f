package mrt

import (
	"encoding/binary"
	"net/netip"

	"github.com/bgpstream-go/bgpstream/internal/bgp"
)

// BGP4MPMessage is a BGP4MP MESSAGE or MESSAGE_AS4 record body: one
// BGP message as received from a vantage point, with addressing
// context (RFC 6396 §4.4.2-4.4.3).
type BGP4MPMessage struct {
	PeerAS  uint32
	LocalAS uint32
	IfIndex uint16
	AFI     uint16
	PeerIP  netip.Addr
	LocalIP netip.Addr
	AS4     bool   // true for the MESSAGE_AS4 subtype
	Data    []byte // the framed BGP message
}

// UpdateInto decodes the contained BGP message, which must be an
// UPDATE, through dec, using the AS-number width implied by the record
// subtype. The returned update follows dec's lifetime contract:
// transient scratch valid until the next Decode* call, with
// AS-path/community backing retained by dec's arenas (see
// bgp.Decoder).
//
//bgp:hotpath
func (m *BGP4MPMessage) UpdateInto(dec *bgp.Decoder) (*bgp.Update, error) {
	asSize := 2
	if m.AS4 {
		asSize = 4
	}
	return dec.DecodeUpdateMessage(m.Data, asSize)
}

// MessageType returns the BGP message type code of the contained
// message without fully decoding it.
func (m *BGP4MPMessage) MessageType() (uint8, error) {
	if len(m.Data) < bgp.HeaderLen {
		return 0, corrupt("bgp4mp message", bgp.ErrTruncated)
	}
	return m.Data[bgp.HeaderLen-1], nil
}

// BGP4MPStateChange is a BGP4MP STATE_CHANGE or STATE_CHANGE_AS4
// record body: a peering-session FSM transition (RFC 6396 §4.4.1).
type BGP4MPStateChange struct {
	PeerAS   uint32
	LocalAS  uint32
	IfIndex  uint16
	AFI      uint16
	PeerIP   netip.Addr
	LocalIP  netip.Addr
	AS4      bool
	OldState bgp.FSMState
	NewState bgp.FSMState
}

func decodeBGP4MPPreamble(buf []byte, as4 bool) (peerAS, localAS uint32, ifIndex, afi uint16, peerIP, localIP netip.Addr, n int, err error) {
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := asLen*2 + 4
	if len(buf) < need {
		err = corrupt("bgp4mp preamble", bgp.ErrTruncated)
		return
	}
	off := 0
	if as4 {
		peerAS = binary.BigEndian.Uint32(buf[off:])
		localAS = binary.BigEndian.Uint32(buf[off+4:])
		off += 8
	} else {
		peerAS = uint32(binary.BigEndian.Uint16(buf[off:]))
		localAS = uint32(binary.BigEndian.Uint16(buf[off+2:]))
		off += 4
	}
	ifIndex = binary.BigEndian.Uint16(buf[off:])
	afi = binary.BigEndian.Uint16(buf[off+2:])
	off += 4
	peerIP, adv, err := decodeAddr(buf[off:], afi)
	if err != nil {
		return
	}
	off += adv
	localIP, adv, err = decodeAddr(buf[off:], afi)
	if err != nil {
		return
	}
	off += adv
	n = off
	return
}

// DecodeBGP4MPMessageTo decodes a MESSAGE or MESSAGE_AS4 record body
// into m, reusing its storage, so per-reader decode loops allocate
// nothing. m.Data aliases body, so m is only valid while body is
// (under Reader.StableBodies, until the reader is garbage).
//
//bgp:hotpath
func DecodeBGP4MPMessageTo(m *BGP4MPMessage, body []byte, subtype uint16) error {
	as4 := subtype == SubtypeMessageAS4
	peerAS, localAS, ifIndex, afi, peerIP, localIP, n, err := decodeBGP4MPPreamble(body, as4)
	if err != nil {
		return err
	}
	*m = BGP4MPMessage{
		PeerAS: peerAS, LocalAS: localAS, IfIndex: ifIndex, AFI: afi,
		PeerIP: peerIP, LocalIP: localIP, AS4: as4, Data: body[n:],
	}
	return nil
}

// DecodeBGP4MPStateChangeTo decodes a STATE_CHANGE or STATE_CHANGE_AS4
// record body into sc, reusing its storage.
//
//bgp:hotpath
func DecodeBGP4MPStateChangeTo(sc *BGP4MPStateChange, body []byte, subtype uint16) error {
	as4 := subtype == SubtypeStateChangeAS4
	peerAS, localAS, ifIndex, afi, peerIP, localIP, n, err := decodeBGP4MPPreamble(body, as4)
	if err != nil {
		return err
	}
	if len(body)-n < 4 {
		return corrupt("state change", bgp.ErrTruncated)
	}
	*sc = BGP4MPStateChange{
		PeerAS: peerAS, LocalAS: localAS, IfIndex: ifIndex, AFI: afi,
		PeerIP: peerIP, LocalIP: localIP, AS4: as4,
		OldState: bgp.FSMState(binary.BigEndian.Uint16(body[n:])),
		NewState: bgp.FSMState(binary.BigEndian.Uint16(body[n+2:])),
	}
	return nil
}

func appendBGP4MPPreamble(dst []byte, peerAS, localAS uint32, ifIndex uint16, peerIP, localIP netip.Addr, as4 bool) []byte {
	if as4 {
		dst = binary.BigEndian.AppendUint32(dst, peerAS)
		dst = binary.BigEndian.AppendUint32(dst, localAS)
	} else {
		dst = binary.BigEndian.AppendUint16(dst, uint16(peerAS))
		dst = binary.BigEndian.AppendUint16(dst, uint16(localAS))
	}
	dst = binary.BigEndian.AppendUint16(dst, ifIndex)
	dst = binary.BigEndian.AppendUint16(dst, addrAFI(peerIP))
	dst = appendAddr(dst, peerIP)
	return appendAddr(dst, localIP)
}

// EncodeBGP4MPMessage produces a record body for m; the subtype to put
// in the header is returned alongside.
func EncodeBGP4MPMessage(m *BGP4MPMessage) (body []byte, subtype uint16) {
	body = appendBGP4MPPreamble(nil, m.PeerAS, m.LocalAS, m.IfIndex, m.PeerIP, m.LocalIP, m.AS4)
	body = append(body, m.Data...)
	subtype = SubtypeMessage
	if m.AS4 {
		subtype = SubtypeMessageAS4
	}
	return body, subtype
}

// EncodeBGP4MPStateChange produces a record body for s and its header
// subtype.
func EncodeBGP4MPStateChange(s *BGP4MPStateChange) (body []byte, subtype uint16) {
	body = appendBGP4MPPreamble(nil, s.PeerAS, s.LocalAS, s.IfIndex, s.PeerIP, s.LocalIP, s.AS4)
	body = binary.BigEndian.AppendUint16(body, uint16(s.OldState))
	body = binary.BigEndian.AppendUint16(body, uint16(s.NewState))
	subtype = SubtypeStateChange
	if s.AS4 {
		subtype = SubtypeStateChangeAS4
	}
	return body, subtype
}

// NewUpdateRecord frames a BGP UPDATE from a vantage point as a
// complete MRT record. AS4 subtypes are selected automatically when
// any ASN exceeds the 2-octet range.
func NewUpdateRecord(ts uint32, peerAS, localAS uint32, peerIP, localIP netip.Addr, u *bgp.Update) Record {
	as4 := peerAS > 0xFFFF || localAS > 0xFFFF || pathHasAS4(u)
	asSize := 2
	if as4 {
		asSize = 4
	}
	msg := &BGP4MPMessage{
		PeerAS: peerAS, LocalAS: localAS,
		PeerIP: peerIP, LocalIP: localIP,
		AS4:  as4,
		Data: bgp.EncodeUpdate(u, asSize),
	}
	body, subtype := EncodeBGP4MPMessage(msg)
	return Record{
		Header: Header{Timestamp: ts, Type: TypeBGP4MP, Subtype: subtype, Length: uint32(len(body))},
		Body:   body,
	}
}

func pathHasAS4(u *bgp.Update) bool {
	for _, seg := range u.Attrs.ASPath.Segments {
		for _, as := range seg.ASNs {
			if as > 0xFFFF {
				return true
			}
		}
	}
	return false
}

// NewStateChangeRecord frames a session FSM transition as a complete
// MRT record.
func NewStateChangeRecord(ts uint32, peerAS, localAS uint32, peerIP, localIP netip.Addr, oldState, newState bgp.FSMState) Record {
	sc := &BGP4MPStateChange{
		PeerAS: peerAS, LocalAS: localAS,
		PeerIP: peerIP, LocalIP: localIP,
		AS4:      peerAS > 0xFFFF || localAS > 0xFFFF,
		OldState: oldState, NewState: newState,
	}
	body, subtype := EncodeBGP4MPStateChange(sc)
	return Record{
		Header: Header{Timestamp: ts, Type: TypeBGP4MP, Subtype: subtype, Length: uint32(len(body))},
		Body:   body,
	}
}
