// Package bgpstream is the public API of the BGPStream framework for
// Go: an open-source system for the analysis of historical and live
// BGP measurement data, reproducing Orsini et al., "BGPStream: A
// Software Framework for Live and Historical BGP Data Analysis"
// (IMC 2016).
//
// The quickstart mirrors the paper's API (§3.3.1) in its BGPStream v2
// form: pick a source by name, describe the stream with a declarative
// filter string, and range over records or elems:
//
//	s, err := bgpstream.Open(ctx,
//		bgpstream.WithSource("broker", bgpstream.SourceOptions{"url": "http://localhost:8472"}),
//		bgpstream.WithFilterString("collector rrc00 and prefix more 10.0.0.0/8 and elemtype announcements"),
//		bgpstream.WithInterval(start, end))
//	if err != nil { ... }
//	defer s.Close()
//	for rec, elem := range s.Elems() {
//		// ... use elem.Prefix, elem.ASPath, elem.Communities ...
//	}
//	if err := s.Err(); err != nil { ... }
//
// WithLive converts any program into a live monitor (the C API's
// interval end of -1). ParseFilterString documents the filter grammar;
// Filters.String() renders any filter set back into its canonical
// string, so every stream can report the query that defines it.
//
// # Sources
//
// Sources() lists the registry (the Go form of the C API's
// bgpstream_get_data_interfaces): "broker" (the meta-data service,
// default for public archives), "directory" (a local archive tree),
// "csvfile" (a CSV dump index), "singlefile" (explicit dump files),
// and "rislive" (the push feed below). Each takes string options
// mirroring bgpstream_set_data_interface_option; RegisterSource adds
// custom transports. WithSourceInstance accepts an already-built
// DataInterface or ElemSource when string options are not enough.
//
// # Pull vs push
//
// Pull sources follow §3.3.2: latency is bounded by dump publication
// delay (minutes). For millisecond latency the framework also speaks a
// RIS Live-style push protocol — per-elem JSON over Server-Sent
// Events, served by RISLiveServer (or the bgplivesrv tool):
//
//	s, err := bgpstream.Open(ctx,
//		bgpstream.WithSource("rislive", bgpstream.SourceOptions{"url": "http://host:8481/v1/stream"}),
//		bgpstream.WithFilterString("peer 3356"))
//
// Both kinds satisfy the same Source abstraction and produce the same
// *Stream, so NextElem loops, Elems ranges, BGPCorsaro plugins and
// routing-table consumers run unchanged on either latency class. The
// push client reconnects with backoff, applies read timeouts, and
// optionally treats stale messages as connection errors; the server
// enforces per-client subscription filters and a bounded-buffer
// slow-client drop policy with drop counters.
//
// Push feeds trade completeness for that latency: slow consumption and
// reconnects lose elems. WithRepair (or the "repaired" source) heals
// the trade-off — loss windows the push client detects are backfilled
// from an archive-class source and spliced into the flow in time
// order, deduplicated at the window boundaries, giving a third class:
// push latency with pull completeness. Stream.SourceStats reports the
// gap/repair counters.
//
// This package re-exports the user-facing types of the internal
// implementation packages; power users building custom pipelines
// (BGPCorsaro plugins, routing-table consumers) can depend on the
// same internals the bundled tools use.
package bgpstream

import (
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/broker"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/gaprepair"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// Stream is a time-sorted stream of BGP records; see core.Stream.
type Stream = core.Stream

// Record is the annotated BGPStream record (§3.3.3, Table 1 context).
type Record = core.Record

// Elem is the per-(VP, prefix) element of Table 1.
type Elem = core.Elem

// Filters defines a stream (§3.3.1). Build one from a filter string
// with ParseFilterString, or field by field; String() renders the
// canonical filter-string form.
type Filters = core.Filters

// FilterSyntaxError is the position-carrying error ParseFilterString
// returns on bad input.
type FilterSyntaxError = core.FilterSyntaxError

// PrefixFilter matches elem prefixes with a PrefixMatch mode.
type PrefixFilter = core.PrefixFilter

// CommunityFilter matches communities with optional wildcards.
type CommunityFilter = core.CommunityFilter

// Source is the unified stream source both pull DataInterfaces and
// push ElemSources satisfy (via PullSource/PushSource); Open binds one
// to filters. OpenSource builds registered sources by name.
type Source = core.Source

// Gap is a window of feed time a push source knows it lost elems over;
// see WithRepair and the "repaired" source for automatic backfill.
type Gap = core.Gap

// SourceStats carries the completeness counters of a (possibly
// repaired) push source; Stream.SourceStats reports them and
// `bgpreader -v` prints them at exit.
type SourceStats = core.SourceStats

// RepairedSource is the gap-repairing composite source behind
// WithRepair and the "repaired" registry entry: a push Live source
// whose loss windows are backfilled from an archive-class Backfill
// source. Use it directly (via WithSourceInstance) when the halves
// need programmatic configuration.
type RepairedSource = gaprepair.Composite

// RepairOptions tunes a RepairedSource (backfill concurrency and
// retry budget, holdback bound, fetch timeout, poll cadence, restart
// cursor path, logging). See WithRepairOptions.
type RepairOptions = gaprepair.Options

// DataInterface supplies dump-file meta-data to a stream (pull).
type DataInterface = core.DataInterface

// ElemSource is the push-feed analogue of DataInterface: it yields
// already-decomposed (record, elem) pairs as they arrive.
type ElemSource = core.ElemSource

// DumpMeta describes one dump file.
type DumpMeta = archive.DumpMeta

// DumpType is "ribs" or "updates".
type DumpType = core.DumpType

// ElemType classifies an Elem.
type ElemType = core.ElemType

// RecordStatus is a record's validity flag.
type RecordStatus = core.RecordStatus

// Directory reads a local archive tree.
type Directory = core.Directory

// CSVFile reads a CSV dump index.
type CSVFile = core.CSVFile

// SingleFiles wraps an explicit dump-file list.
type SingleFiles = core.SingleFiles

// BrokerClient queries a BGPStream Broker.
type BrokerClient = broker.Client

// RISLiveClient consumes a RIS Live-style SSE feed with automatic
// reconnection; it implements ElemSource.
type RISLiveClient = rislive.Client

// RISLiveServer serves a RIS Live-style SSE feed; publish elems to it
// from any producer.
type RISLiveServer = rislive.Server

// RISLiveSubscription is a per-client server-side feed filter.
type RISLiveSubscription = rislive.Subscription

// RISLiveMessage is the JSON envelope of feed messages.
type RISLiveMessage = rislive.Message

// Re-exported enum values.
const (
	DumpRIB     = core.DumpRIB
	DumpUpdates = core.DumpUpdates

	ElemRIB          = core.ElemRIB
	ElemAnnouncement = core.ElemAnnouncement
	ElemWithdrawal   = core.ElemWithdrawal
	ElemPeerState    = core.ElemPeerState

	StatusValid           = core.StatusValid
	StatusCorruptedDump   = core.StatusCorruptedDump
	StatusCorruptedRecord = core.StatusCorruptedRecord
	StatusUnsupported     = core.StatusUnsupported

	MatchAny          = core.MatchAny
	MatchExact        = core.MatchExact
	MatchMoreSpecific = core.MatchMoreSpecific
	MatchLessSpecific = core.MatchLessSpecific
)

// ParseFilterString compiles a BGPStream v2 filter string to Filters.
// The grammar combines terms with "and" and same-term alternatives
// with "or"; values with spaces or keyword collisions are
// double-quoted:
//
//	project    collector-project name ("ris", "routeviews")
//	collector  collector name ("rrc00", "route-views2")
//	type       dump type: ribs | updates
//	elemtype   ribs | announcements | withdrawals | peerstates (or R/A/W/S)
//	peer       vantage-point AS number
//	origin     origin AS number
//	aspath     AS number anywhere on the path ("path" is an alias)
//	prefix     [exact|more|less|any] CIDR (default any = overlap)
//	community  asn:value with "*" wildcards on either half
//
// Example: "collector rrc00 and prefix more 10.0.0.0/8 and elemtype
// announcements". Errors are *FilterSyntaxError values carrying the
// byte offset of the offending token. The inverse is Filters.String().
func ParseFilterString(s string) (Filters, error) {
	return core.ParseFilterString(s)
}

// PullSource adapts a DataInterface into a Source.
func PullSource(di DataInterface) Source { return core.PullSource(di) }

// PushSource adapts an ElemSource into a Source.
func PushSource(es ElemSource) Source { return core.PushSource(es) }

// NewElemRecord synthesises a valid Record carrying pre-decomposed
// elems, the building block for custom push sources and tests: Elems
// returns exactly elems and the record sorts by ts in merge layers.
func NewElemRecord(project, collector string, t DumpType, ts time.Time, elems []Elem) *Record {
	return core.NewElemRecord(project, collector, t, ts, elems)
}

// ParseCommunityFilter parses "asn:value" with "*" wildcards.
func ParseCommunityFilter(s string) (CommunityFilter, error) {
	return core.ParseCommunityFilter(s)
}
