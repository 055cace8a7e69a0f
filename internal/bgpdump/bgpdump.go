// Package bgpdump renders BGPStream records and elems in the one-line
// ASCII formats of the classic bgpdump tool (-m machine-readable
// format), making BGPReader a drop-in replacement for bgpdump-based
// pipelines (§4.1), plus the richer default BGPStream format that adds
// project/collector provenance.
//
// Each format has one renderer, an Append* function that appends the
// line (without a trailing newline) to a caller-owned byte slice and
// allocates nothing when the slice has room; the Format* functions are
// string-returning wrappers over them. The renderers are pure
// functions of (record, elem) — no state, no caches — so they may be
// called from any goroutine, but on a streaming elem they must run
// before the stream's next pull (the elem's AS path and communities
// live in decode arenas, see docs/ARCHITECTURE.md).
package bgpdump

import (
	"strconv"

	"github.com/bgpstream-go/bgpstream/internal/core"
)

// lineScratch sizes the stack buffer of the Format* wrappers: lines
// that fit (nearly all do) cost one allocation, the returned string.
const lineScratch = 256

// FormatElem renders one elem in bgpdump -m style, see AppendElem.
func FormatElem(r *core.Record, e *core.Elem) string {
	var buf [lineScratch]byte
	return string(AppendElem(buf[:0], r, e))
}

// AppendElem appends one elem in bgpdump -m style to dst and returns
// the extended slice:
//
//	BGP4MP|<unix>|<A|W|S>|<peer-ip>|<peer-asn>|<prefix>|<as-path>|IGP|<next-hop>|0|0|<communities>|NAG||
//
// RIB elems use the TABLE_DUMP2 prefix and "B" type as bgpdump does.
//
//bgp:hotpath
func AppendElem(dst []byte, r *core.Record, e *core.Elem) []byte {
	proto, typ := "BGP4MP|", e.Type.String()
	if e.Type == core.ElemRIB {
		proto, typ = "TABLE_DUMP2|", "B"
	}
	dst = append(dst, proto...)
	dst = strconv.AppendInt(dst, e.Timestamp.Unix(), 10)
	dst = append(dst, '|')
	dst = append(dst, typ...)
	dst = append(dst, '|')
	if e.PeerAddr.IsValid() {
		dst = e.PeerAddr.AppendTo(dst)
	}
	dst = append(dst, '|')
	dst = strconv.AppendUint(dst, uint64(e.PeerASN), 10)
	dst = append(dst, '|')
	switch e.Type {
	case core.ElemPeerState:
		dst = append(dst, e.OldState.String()...)
		dst = append(dst, '|')
		dst = append(dst, e.NewState.String()...)
	case core.ElemWithdrawal:
		dst = appendPrefix(dst, e)
	default:
		dst = appendPrefix(dst, e)
		dst = append(dst, '|')
		dst = e.ASPath.AppendText(dst)
		dst = append(dst, "|IGP|"...)
		if e.NextHop.IsValid() {
			dst = e.NextHop.AppendTo(dst)
		}
		dst = append(dst, "|0|0|"...)
		dst = e.Communities.AppendText(dst)
		dst = append(dst, "|NAG||"...)
	}
	return dst
}

//bgp:hotpath
func appendPrefix(dst []byte, e *core.Elem) []byte {
	if e.Prefix.IsValid() {
		dst = e.Prefix.AppendTo(dst)
	}
	return dst
}

// FormatElemVerbose renders the default BGPStream output format, see
// AppendElemVerbose.
func FormatElemVerbose(r *core.Record, e *core.Elem) string {
	var buf [lineScratch]byte
	return string(AppendElemVerbose(buf[:0], r, e))
}

// AppendElemVerbose appends the default BGPStream output format, which
// prepends provenance — record type, dump position, project, collector
// and status — to the AppendElem line:
//
//	<type>|<position>|<unix>|<project>|<collector>|<status>|<elem...>
//
//bgp:hotpath
func AppendElemVerbose(dst []byte, r *core.Record, e *core.Elem) []byte {
	dst = AppendRecord(dst, r)
	dst = append(dst, '|')
	return AppendElem(dst, r, e)
}

// FormatRecord renders a record-level line, see AppendRecord.
func FormatRecord(r *core.Record) string {
	var buf [lineScratch]byte
	return string(AppendRecord(buf[:0], r))
}

// AppendRecord appends a record-level line (used for invalid records,
// which carry no elems but must still be visible to operators):
//
//	<type>|<position>|<unix>|<project>|<collector>|<status>
//
//bgp:hotpath
func AppendRecord(dst []byte, r *core.Record) []byte {
	if r.DumpType == core.DumpRIB {
		dst = append(dst, 'R')
	} else {
		dst = append(dst, 'U')
	}
	dst = append(dst, '|')
	dst = append(dst, r.Position.String()...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, r.Time().Unix(), 10)
	dst = append(dst, '|')
	dst = append(dst, r.Project...)
	dst = append(dst, '|')
	dst = append(dst, r.Collector...)
	dst = append(dst, '|')
	dst = append(dst, r.Status.String()...)
	return dst
}
