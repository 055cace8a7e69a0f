package core

import (
	"sort"
	"sync"
	"time"
)

// SourceHealth is the runtime view of one open stream, served by the
// /sources introspection endpoint and bgpreader -show-sources: which
// source it came from, how long it has been open, how far its data
// has progressed, and its completeness counters.
type SourceHealth struct {
	// Source is the registry name the stream was opened from
	// (WithSource), or "" for instance-constructed streams.
	Source string `json:"source"`
	// Kind is "pull" (dump files) or "push" (live feed).
	Kind     string    `json:"kind"`
	OpenedAt time.Time `json:"opened_at"`
	// LastElem is the BGP timestamp of the last delivered elem — data
	// progress, not wall-clock activity. Zero until the first elem.
	LastElem time.Time `json:"last_elem,omitzero"`
	// Elems counts elems this stream delivered past all filters.
	Elems uint64 `json:"elems"`
	// Stats are the source completeness counters (push streams) and
	// the fetch retry/resume/breaker counters (pull streams).
	Stats SourceStats `json:"stats"`
}

// activeStreams tracks every open Stream for introspection. Streams
// register on construction and unregister on Close; a stream that is
// never closed stays listed — that is the point of a health view.
var (
	activeMu      sync.Mutex
	activeStreams = make(map[*Stream]struct{})
)

func registerStream(s *Stream) {
	activeMu.Lock()
	activeStreams[s] = struct{}{}
	activeMu.Unlock()
}

func unregisterStream(s *Stream) {
	activeMu.Lock()
	delete(activeStreams, s)
	activeMu.Unlock()
}

// ActiveSourceHealth snapshots the health of every open stream,
// sorted by source name then age (oldest first).
func ActiveSourceHealth() []SourceHealth {
	activeMu.Lock()
	streams := make([]*Stream, 0, len(activeStreams))
	for s := range activeStreams {
		streams = append(streams, s)
	}
	activeMu.Unlock()
	out := make([]SourceHealth, 0, len(streams))
	for _, s := range streams {
		out = append(out, s.Health())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].OpenedAt.Before(out[j].OpenedAt)
	})
	return out
}

// SetSourceName records which registry source the stream was opened
// from, for SourceHealth. The facade's Open sets it; direct
// constructors leave it empty.
func (s *Stream) SetSourceName(name string) { s.sourceName = name }

// Detach removes the stream from the active-health registry without
// closing it. Compositors that unwrap a stream's elem source and
// abandon the wrapper (internal/gaprepair) use it so the discarded
// wrapper does not linger as a phantom health entry.
func (s *Stream) Detach() { unregisterStream(s) }

// Health reports this stream's runtime health. Safe to call while the
// stream is being consumed from another goroutine: progress fields
// are atomics and the completeness counters were already
// concurrency-safe.
func (s *Stream) Health() SourceHealth {
	kind := "pull"
	if s.elemSrc != nil {
		kind = "push"
	}
	h := SourceHealth{
		Source:   s.sourceName,
		Kind:     kind,
		OpenedAt: s.openedAt,
		Elems:    s.elemsOut.Load(),
		Stats:    s.SourceStats(),
	}
	if k := s.lastElemKey.Load(); k != 0 {
		h.LastElem = time.Unix(int64(k>>20), int64(k&0xfffff)*1000).UTC()
	}
	return h
}
