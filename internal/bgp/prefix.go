package bgp

import (
	"net/netip"
)

// AppendNLRI appends the RFC 4271 wire encoding of prefix to dst: one
// length octet followed by the minimum number of address octets needed
// to hold the masked network bits. The prefix is canonicalised (masked)
// before encoding so host bits never leak onto the wire.
func AppendNLRI(dst []byte, prefix netip.Prefix) []byte {
	prefix = prefix.Masked()
	bits := prefix.Bits()
	dst = append(dst, byte(bits))
	addr := prefix.Addr().AsSlice()
	n := (bits + 7) / 8
	return append(dst, addr[:n]...)
}

// DecodeNLRI decodes a single NLRI-encoded prefix from buf for the
// given address family (AFIIPv4 or AFIIPv6). It returns the prefix and
// the number of bytes consumed.
func DecodeNLRI(buf []byte, afi uint16) (netip.Prefix, int, error) {
	if len(buf) < 1 {
		return netip.Prefix{}, 0, wireErr("nlri", 0, ErrTruncated)
	}
	bits := int(buf[0])
	max := 32
	if afi == AFIIPv6 {
		max = 128
	}
	if bits > max {
		return netip.Prefix{}, 0, wireErr("nlri", 0, ErrBadPrefix)
	}
	n := (bits + 7) / 8
	if len(buf) < 1+n {
		return netip.Prefix{}, 0, wireErr("nlri", 1, ErrTruncated)
	}
	var addr netip.Addr
	if afi == AFIIPv6 {
		var raw [16]byte
		copy(raw[:], buf[1:1+n])
		addr = netip.AddrFrom16(raw)
	} else {
		var raw [4]byte
		copy(raw[:], buf[1:1+n])
		addr = netip.AddrFrom4(raw)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, 0, wireErr("nlri", 0, ErrBadPrefix)
	}
	return p, 1 + n, nil
}

// AppendNLRIList appends the wire encoding of each prefix in ps to dst.
func AppendNLRIList(dst []byte, ps []netip.Prefix) []byte {
	for _, p := range ps {
		dst = AppendNLRI(dst, p)
	}
	return dst
}

// PrefixAFI returns the address family identifier for p.
func PrefixAFI(p netip.Prefix) uint16 {
	if p.Addr().Is4() {
		return AFIIPv4
	}
	return AFIIPv6
}
