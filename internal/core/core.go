// Package core is the Go equivalent of libBGPStream, the main library
// of the BGPStream framework (§3.3 of the paper). It turns
// heterogeneous dump files from multiple collectors and collector
// projects into a single time-sorted stream of annotated BGP records,
// decomposes records into per-(VP, prefix) elems, applies meta-data
// and content filters, and supports both historical and live
// (blocking) operation.
//
// The layering mirrors the paper: a DataInterface supplies dump-file
// meta-data (the Broker client, a local directory, a CSV index, or an
// explicit file list); dump files are opened lazily — streamed
// straight from their HTTP connection when remote — and their records
// interleaved with a multi-way merge applied per overlapping-interval
// subset (§3.3.4); corrupted input marks records invalid instead of
// failing the stream; and the record/elem data model follows Table 1.
package core

import (
	"fmt"
	"net/netip"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/bgp"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
)

// DumpType aliases the archive dump type ("ribs" or "updates").
type DumpType = archive.DumpType

// Dump type constants re-exported for API convenience.
const (
	DumpRIB     = archive.DumpRIB
	DumpUpdates = archive.DumpUpdates
)

// RecordStatus classifies a record's validity, mirroring the status
// field of the BGPStream record (§3.3.3).
type RecordStatus int

// Record status values.
const (
	// StatusValid marks a successfully decoded record.
	StatusValid RecordStatus = iota
	// StatusCorruptedDump marks the placeholder record emitted when a
	// dump file cannot be opened at all.
	StatusCorruptedDump
	// StatusCorruptedRecord marks the placeholder emitted when a dump
	// turns unreadable mid-file; prior records remain valid.
	StatusCorruptedRecord
	// StatusUnsupported marks a structurally intact record of a type
	// this implementation does not interpret.
	StatusUnsupported
)

// String returns a short lowercase name ("valid", ...).
func (s RecordStatus) String() string {
	switch s {
	case StatusValid:
		return "valid"
	case StatusCorruptedDump:
		return "corrupted-dump"
	case StatusCorruptedRecord:
		return "corrupted-record"
	case StatusUnsupported:
		return "unsupported"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// DumpPosition marks where a record sits within its dump file, letting
// users collate the records of a single RIB dump (§3.3.3). Start and
// End may combine for single-record dumps.
type DumpPosition uint8

// Dump position bits.
const (
	PositionMiddle DumpPosition = 0
	PositionStart  DumpPosition = 1 << iota
	PositionEnd
)

// IsStart reports whether the record begins its dump file.
func (p DumpPosition) IsStart() bool { return p&PositionStart != 0 }

// IsEnd reports whether the record ends its dump file.
func (p DumpPosition) IsEnd() bool { return p&PositionEnd != 0 }

// String renders the position ("start", "middle", "end", "start|end").
func (p DumpPosition) String() string {
	switch {
	case p.IsStart() && p.IsEnd():
		return "start|end"
	case p.IsStart():
		return "start"
	case p.IsEnd():
		return "end"
	default:
		return "middle"
	}
}

// Record is the BGPStream record: a de-serialised MRT record plus an
// error flag and annotations about the originating dump (§3.3.3).
//
// Records and their MRT bodies are carved out of shared arena chunks
// on the dump-file path, so streaming consumers pay no per-record
// allocation. A record stays valid as long as it is referenced — but
// retaining a few scattered records for a long time pins their whole
// chunks; such consumers should copy out what they keep (e.g.
// rec.MRT.Body into a fresh slice) and drop the record.
type Record struct {
	// Project and Collector identify the data source.
	Project   string
	Collector string
	// DumpType and DumpTime identify the dump file (DumpTime is the
	// nominal dump start, not the record timestamp).
	DumpType DumpType
	DumpTime time.Time
	// Status is the validity flag; non-valid records carry no MRT
	// payload.
	Status RecordStatus
	// Position marks dump-file start/end records.
	Position DumpPosition
	// MRT is the underlying record (valid records only).
	MRT mrt.Record

	// peers carries the TABLE_DUMP_V2 peer index context needed to
	// resolve RIB entries to vantage points.
	peers *mrt.PeerIndexTable

	// synth holds pre-decomposed elems for records synthesised by
	// elem-level sources (push feeds) that carry no MRT payload.
	synth []Elem
}

// Time returns the record's MRT timestamp; invalid records fall back
// to the dump time.
func (r *Record) Time() time.Time {
	if r.Status != StatusValid && r.MRT.Header.Timestamp == 0 {
		return r.DumpTime
	}
	return r.MRT.Header.Time()
}

// timeKey returns a monotone integer sort key (seconds then
// microseconds) used on the merge hot path instead of time.Time.
func (r *Record) timeKey() uint64 {
	if r.Status != StatusValid && r.MRT.Header.Timestamp == 0 {
		return uint64(secondsKey(r.DumpTime.Unix()))
	}
	return uint64(r.MRT.Header.Timestamp)<<20 | uint64(r.MRT.Header.Microseconds)
}

// secondsKey is the timeKey of a whole Unix second, signed so that a
// merge join time before the epoch sorts below every record.
func secondsKey(sec int64) int64 { return sec << 20 }

// PeerIndex exposes the peer index table in effect for this record
// (TABLE_DUMP_V2 dumps only).
func (r *Record) PeerIndex() *mrt.PeerIndexTable { return r.peers }

// SetPeerIndex attaches the TABLE_DUMP_V2 peer index context. The
// stream layer does this automatically while reading dump files; it
// is exported for tools that construct records by hand (simulators,
// tests).
func (r *Record) SetPeerIndex(pit *mrt.PeerIndexTable) { r.peers = pit }

// ElemType classifies a BGPStream elem (Table 1 "type" field).
type ElemType int

// Elem types.
const (
	// ElemRIB is a route from a RIB dump.
	ElemRIB ElemType = iota + 1
	// ElemAnnouncement is a route announcement from an update.
	ElemAnnouncement
	// ElemWithdrawal is a route withdrawal from an update.
	ElemWithdrawal
	// ElemPeerState is a session FSM transition.
	ElemPeerState
)

// String returns the single-letter code bgpdump uses where one exists
// ("R", "A", "W", "S").
func (t ElemType) String() string {
	switch t {
	case ElemRIB:
		return "R"
	case ElemAnnouncement:
		return "A"
	case ElemWithdrawal:
		return "W"
	case ElemPeerState:
		return "S"
	default:
		return fmt.Sprintf("elem(%d)", int(t))
	}
}

// Elem is the BGPStream elem of Table 1: one route, withdrawal, or
// state message for one (vantage point, prefix) pair, extracted from a
// record that may group several of them.
//
// Elems handed out by Stream.NextElem reference the stream's decode
// arenas through ASPath and Communities; they are guaranteed valid
// until the stream's next pull. Use Clone for retention beyond that
// (Record.Elems results are caller-owned and need no Clone).
type Elem struct {
	Type      ElemType
	Timestamp time.Time
	// PeerAddr and PeerASN identify the vantage point.
	PeerAddr netip.Addr
	PeerASN  uint32
	// Prefix is set for RIB routes, announcements and withdrawals.
	Prefix netip.Prefix
	// NextHop, ASPath and Communities are set for RIB routes and
	// announcements.
	NextHop     netip.Addr
	ASPath      bgp.ASPath
	Communities bgp.Communities
	// OldState and NewState are set for peer-state elems.
	OldState bgp.FSMState
	NewState bgp.FSMState
}

// Clone returns a deep copy of the elem, independent of any decode
// arena it was materialised from: the retention edge of the pipeline's
// memory-ownership contract (docs/ARCHITECTURE.md). Scalar fields are
// values already; ASPath segments and Communities get fresh backing.
func (e *Elem) Clone() Elem {
	out := *e
	out.ASPath = e.ASPath.Clone()
	out.Communities = e.Communities.Clone()
	return out
}

// Origins returns the origin ASNs of the elem's AS path (multiple for
// AS_SET-terminated paths).
func (e *Elem) Origins() []uint32 {
	origin, ok := e.ASPath.Origin()
	if !ok {
		return nil
	}
	return origin
}

// OriginASN returns the single origin ASN, or 0 when the path is
// empty or set-terminated with several origins.
func (e *Elem) OriginASN() uint32 {
	o := e.Origins()
	if len(o) == 1 {
		return o[0]
	}
	return 0
}

// StreamError annotates stream failures with the dump that produced
// them.
type StreamError struct {
	Op   string
	Dump archive.DumpMeta
	Err  error
}

// Error implements the error interface.
func (e *StreamError) Error() string {
	return fmt.Sprintf("bgpstream: %s %s/%s %s %s: %v",
		e.Op, e.Dump.Project, e.Dump.Collector, e.Dump.Type,
		e.Dump.Time.UTC().Format("2006-01-02T15:04"), e.Err)
}

// Unwrap returns the underlying cause.
func (e *StreamError) Unwrap() error { return e.Err }
