package core

import (
	"context"
	"time"
)

// ElemSource is the push-feed analogue of DataInterface: instead of
// supplying dump-file meta-data for the stream to open and decompose,
// it yields already-decomposed (record, elem) pairs as they arrive.
// This is the abstraction behind per-message streaming transports
// (the RIS Live-style SSE feed of internal/rislive) where latency is
// bounded by message propagation, not dump publication (§3.3.2 is the
// pull-based alternative).
//
// NextElem blocks — honouring ctx — until the next elem arrives,
// returning io.EOF when the source is closed for good. The returned
// record carries the project/collector/timestamp annotations of the
// originating feed message; several consecutive elems may share one
// record.
type ElemSource interface {
	NextElem(ctx context.Context) (*Record, *Elem, error)
	// Close releases the source; a blocked NextElem returns io.EOF.
	Close() error
}

// NewLiveStream builds a Stream over an elem-level push source. The
// result is a regular *Stream — NextElem loops, BGPCorsaro plugins and
// routing-table consumers work unchanged — with records and elems
// flowing from src instead of dump files. Every filter dimension the
// pull path honours applies locally — elem-level predicates, the time
// window, and the project/collector/dump-type meta filters (checked
// against the record's feed tags) — so a stream's filters stay
// authoritative even when the upstream subscription is looser.
//
// Push feeds never terminate on their own: iteration ends when ctx is
// cancelled or the source (or stream) is closed.
func NewLiveStream(ctx context.Context, src ElemSource, filters Filters) *Stream {
	return newStream(ctx, nil, src, filters)
}

// NewElemRecord synthesises a valid Record carrying pre-decomposed
// elems instead of an MRT payload: Elems returns exactly elems, and
// the record sorts by ts in merge layers. Elem-level sources use it to
// re-materialise records from feed messages; it is exported for tools
// and tests that inject elems directly.
func NewElemRecord(project, collector string, t DumpType, ts time.Time, elems []Elem) *Record {
	r := &Record{
		Project:   project,
		Collector: collector,
		DumpType:  t,
		DumpTime:  ts,
		Status:    StatusValid,
	}
	r.MRT.Header.Timestamp = uint32(ts.Unix())
	r.MRT.Header.Microseconds = uint32(ts.Nanosecond() / 1e3)
	if elems == nil {
		elems = []Elem{}
	}
	r.synth = elems
	return r
}
