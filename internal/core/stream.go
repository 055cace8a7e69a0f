package core

import (
	"cmp"
	"context"
	"errors"
	"io"
	"iter"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/merge"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// Stream is the user-facing BGP data stream of the libBGPStream API:
// configure it with a DataInterface and Filters, then iterate records
// with Next or flattened elems with NextElem until io.EOF (historical
// mode) or forever (live mode).
//
// Records arrive sorted by MRT timestamp across all selected dumps.
// Sorting is §3.3.4's multi-way merge run as a sweep line: a batch's
// dump files are opened in start order as the merge reaches them (see
// mergeSlack) and leave it at EOF, so only the files live at the
// current instant, plus a few prefetched ahead, are open.
type Stream struct {
	di DataInterface
	// compiled is the current filter snapshot. A snapshot is never
	// mutated: AddPrefixFilter / AddCommunityFilter store a new one
	// under mu, so per-elem, per-record and decode-worker readers load
	// it without locking.
	compiled atomic.Pointer[CompiledFilters]
	ctx      context.Context

	// elemSrc, when set, replaces the dump-file pipeline entirely: the
	// stream is a thin filtering view over a push feed (NewLiveStream).
	elemSrc ElemSource

	mu sync.Mutex // serialises filter updates; guards err and fetcher

	merger  *merge.Merger[*Record] // the current batch's sweep merge
	lastKey uint64                 // timeKey of the latest valid record merged
	lastSrc *Record                // last record handed out in push mode
	closed  atomic.Bool            // set by Close, possibly from another goroutine
	err     error                  // terminal error recorded by the iterators (guarded by mu)

	// decodeWorkers and readahead configure the parallel ingest
	// pipeline (see prefetch.go); stopPipeline abandons the current
	// pipeline's workers on Close.
	decodeWorkers int
	readahead     int
	stopPipeline  func()

	// fetchPolicy and breakerThreshold configure the resilient dump
	// fetcher (SetFetchPolicy / SetBreakerThreshold, before
	// iteration); fetcher is built lazily for the first batch and
	// shared by every dump source of the stream, so retry/resume
	// counters aggregate per stream. fetcher is guarded by mu (read by
	// SourceStats while a consumer goroutine builds batches).
	fetchPolicy      resilience.Policy
	breakerThreshold int
	fetcher          *resilience.Fetcher

	// Health/introspection state (health.go): the registry source name
	// the stream was opened from, when, and atomic progress marks
	// readable while another goroutine consumes the stream.
	sourceName  string
	openedAt    time.Time
	elemsOut    atomic.Uint64 // elems delivered past all filters
	lastElemKey atomic.Uint64 // timeKey of the last delivered elem

	// elem iteration state
	curRecord *Record
	curElems  []Elem
	elemIdx   int
	// elemArena amortises the per-record []Elem allocation of the
	// decomposition path: records slice their elems out of a shared
	// chunk that is replaced — never rewound — when full, so handed-out
	// elems stay valid for as long as they are referenced. Chunks grow
	// geometrically so short streams don't pay a full-size chunk.
	elemArena     []Elem
	elemArenaNext int
	// dec is the stream's per-reader decode state (bgp.Decoder arenas +
	// MRT record scratch). Elems are materialised exclusively on the
	// consumer goroutine — prefetch workers parse MRT framing but never
	// decode elems — so a single decoder per stream needs no locking.
	dec elemDecoder
}

// Elem-arena chunk growth bounds (elems per chunk), and the minimum
// free space worth starting a record decomposition with (larger
// records grow the chunk via append, abandoning the remainder).
const (
	minElemArena   = 64
	maxElemArena   = 1024
	elemArenaSpare = 16
)

// NewStream builds a stream over the given data interface. The context
// bounds blocking operations (live-mode polling); pass
// context.Background() for unbounded historical runs.
func NewStream(ctx context.Context, di DataInterface, filters Filters) *Stream {
	return newStream(ctx, di, nil, filters)
}

// newStream is the one constructor behind NewStream (di set) and
// NewLiveStream (es set).
func newStream(ctx context.Context, di DataInterface, es ElemSource, filters Filters) *Stream {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Stream{di: di, elemSrc: es, ctx: ctx, openedAt: time.Now().UTC()}
	s.compiled.Store(CompileFilters(filters))
	registerStream(s)
	return s
}

// SetDecodeWorkers bounds the decode workers of the parallel ingest
// pipeline: up to n dump files are opened, gunzipped and MRT-parsed
// concurrently while the merge heap pops ready records, with time
// ordering byte-for-byte identical to a sequential run. n <= 0 (the
// default) selects GOMAXPROCS; n == 1 selects the sequential in-line
// pipeline (no worker goroutines). Call before iteration starts; batches already
// being merged keep their pipeline.
func (s *Stream) SetDecodeWorkers(n int) { s.decodeWorkers = n }

// SetReadahead bounds the per-dump-file readahead queue of the
// parallel ingest pipeline, in records. n <= 0 selects the default
// (64, one decode batch: each open dump file then holds at most two
// batches decoded ahead of the merge). Call before iteration starts.
func (s *Stream) SetReadahead(n int) { s.readahead = n }

// SetFetchPolicy overrides the retry policy of the stream's dump
// fetcher: attempts per transient failure, backoff shape, and (via
// the same policy) mid-body resume re-requests. The zero value is the
// resilience defaults. Call before iteration starts.
func (s *Stream) SetFetchPolicy(p resilience.Policy) { s.fetchPolicy = p }

// SetBreakerThreshold sets how many consecutive fetch failures trip a
// per-host circuit breaker on the stream's dump fetcher: 0 (the
// default) selects resilience.DefaultBreakerThreshold, negative
// disables circuit breaking. Call before iteration starts.
func (s *Stream) SetBreakerThreshold(n int) { s.breakerThreshold = n }

// fetch returns the stream's dump fetcher, building it on first use
// from the configured policy and breaker threshold.
func (s *Stream) fetch() *resilience.Fetcher {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fetcher == nil {
		f := &resilience.Fetcher{Client: httpClient, Policy: s.fetchPolicy}
		if s.breakerThreshold >= 0 {
			f.Breakers = resilience.NewBreakerSet(s.breakerThreshold, 0)
		}
		s.fetcher = f
	}
	return s.fetcher
}

// Filters returns a copy of the stream's filter configuration.
func (s *Stream) Filters() Filters { return s.compiled.Load().src }

// ElemSource returns the push source feeding this stream, or nil for
// pull (dump-file) streams. Compositors use it to re-wrap the source —
// internal/gaprepair unwraps a push stream, interposes its repairer,
// and builds a new stream over the result.
func (s *Stream) ElemSource() ElemSource { return s.elemSrc }

// SourceStats reports the completeness counters of the stream's
// source. Push streams delegate to their elem source when it
// implements StatsReporter (rislive.Client, gaprepair.Repairer);
// pull streams are complete by construction but report the fetch
// resilience counters of their dump fetcher (retries, resumes,
// permanent failures, breaker state).
func (s *Stream) SourceStats() SourceStats {
	var st SourceStats
	if sr, ok := s.elemSrc.(StatsReporter); ok {
		st = sr.SourceStats()
	}
	s.mu.Lock()
	f := s.fetcher
	s.mu.Unlock()
	if f != nil {
		fs := f.Stats()
		st.FetchRetries = fs.Retries
		st.FetchResumes = fs.Resumes
		st.FetchFailures = fs.Permanent
		st.BreakerTransitions = fs.BreakerTransitions
		st.BreakersOpen = fs.BreakersOpen
	}
	return st
}

// AddPrefixFilter adds a prefix filter while the stream runs. This is
// the mechanism the RTBH case study (§4.3) uses: the first stream
// detects a black-holed prefix and registers it on the second stream
// to capture its withdrawal.
func (s *Stream) AddPrefixFilter(f PrefixFilter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.compiled.Load().src
	next.Prefixes = append(slices.Clip(next.Prefixes), f)
	s.compiled.Store(CompileFilters(next))
}

// AddCommunityFilter adds a community filter while the stream runs.
func (s *Stream) AddCommunityFilter(f CommunityFilter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.compiled.Load().src
	next.Communities = append(slices.Clip(next.Communities), f)
	s.compiled.Store(CompileFilters(next))
}

// mergeSlack is how many seconds before its declared start a dump
// file's records may be stamped and still come out in time order: a
// file joins the sweep merge when the frontier reaches start minus
// mergeSlack. An earlier record is delivered late and counted
// (bgpstream_merge_out_of_interval_total); a record after its file's
// end needs no slack, as the file stays in the merge until its EOF.
// Files join in start order, so merge.Merger's tie rule yields the
// order of a §3.3.4 merge that opens every file before its first pop.
const mergeSlack = 60

// buildMerger sorts a batch of dump metas by declared start and
// builds the batch's sweep merge over them. With one decode worker
// each dump file feeds the merge directly (decoded inline on the
// consumer); with more, through the parallel prefetch pipeline
// (prefetch.go). Ordering is identical either way.
func (s *Stream) buildMerger(metas []archive.DumpMeta) *merge.Merger[*Record] {
	slices.SortStableFunc(metas, func(a, b archive.DumpMeta) int { return cmp.Compare(a.Time.Unix(), b.Time.Unix()) })
	workers := s.decodeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	toSource := func(ds *dumpSource) merge.Source[*Record] { return ds }
	if workers > 1 {
		// A fresh batch replaces the previous pipeline; its workers have
		// drained (the merge hit EOF), so stopping is bookkeeping.
		if s.stopPipeline != nil {
			s.stopPipeline()
		}
		p := &prefetchPipeline{sem: make(chan struct{}, workers), halt: make(chan struct{}), readahead: s.readahead}
		toSource, s.stopPipeline = p.source, p.stop
	}
	fetch := s.fetch()
	window := s.compiled.Load()
	sources := make([]merge.Source[*Record], len(metas))
	joinAt := make([]int64, len(metas))
	for i, m := range metas {
		start, _ := m.Interval()
		joinAt[i] = secondsKey(start - mergeSlack)
		sources[i] = toSource(newDumpSource(s.ctx, fetch, m, window))
	}
	return merge.NewSweep(recordLess, func(r *Record) int64 { return int64(r.timeKey()) }, joinAt, sources)
}

// matchSourceRecord applies the meta-data filters to a pushed record:
// the dimensions the pull path checks per dump file (project,
// collector, dump type) against the record's feed tags, and the time
// window per record as in dumpfile.go. A well-behaved subscription
// enforces most of this upstream; applying it locally keeps a stream's
// filters authoritative regardless of what the feed sends. This runs
// once per pushed record, so it probes the compiled lookup sets
// instead of scanning the filter slices.
func (s *Stream) matchSourceRecord(rec *Record) bool {
	c := s.compiled.Load()
	if !c.matchTags(rec.Project, rec.Collector, rec.DumpType) {
		return false
	}
	return c.src.MatchRecordTime(rec.Time())
}

// recordLess orders records by MRT timestamp. It compares raw numeric
// keys rather than time.Time values: this runs O(log k) times per
// record inside the merge heap and is the hot spot that would
// otherwise make sorting cost comparable to reading (§3.3.4 requires
// the opposite).
func recordLess(a, b *Record) bool { return a.timeKey() < b.timeKey() }

// Next returns the next record in time order, or io.EOF when the
// stream is exhausted. Invalid records (corrupted dumps) are returned
// with their status set so callers can account for them; they carry no
// elems.
func (s *Stream) Next() (*Record, error) {
	if s.closed.Load() {
		return nil, io.EOF
	}
	if s.elemSrc != nil {
		// Push mode: a source may deliver several elems sharing one
		// record; return each distinct record once so rec.Elems() (and
		// the NextElem path below) sees every elem exactly once. The
		// meta filters the pull path applies per dump file (dump type)
		// or per record (time window, as in dumpfile.go) apply here
		// per pushed record — feeds cannot enforce them upstream.
		for {
			rec, _, err := s.elemSrc.NextElem(s.ctx)
			if err != nil {
				return nil, err
			}
			if rec == nil || rec == s.lastSrc {
				continue
			}
			s.lastSrc = rec
			if !s.matchSourceRecord(rec) {
				continue
			}
			return rec, nil
		}
	}
	for {
		if s.merger == nil {
			metas, err := s.di.NextBatch(s.ctx)
			if errors.Is(err, io.EOF) {
				// Exhausted for good: mark closed so the health registry
				// drops the stream even if the caller never calls Close.
				s.closed.Store(true)
				unregisterStream(s)
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			selected := metas[:0:0]
			cc := s.compiled.Load()
			for _, m := range metas {
				if cc.MatchMeta(m) {
					selected = append(selected, m)
				}
			}
			if len(selected) == 0 {
				continue
			}
			s.merger = s.buildMerger(selected)
		}
		rec, err := s.merger.Next()
		if errors.Is(err, io.EOF) {
			s.merger = nil
			continue
		}
		if err != nil {
			return nil, err
		}
		if rec.Status == StatusValid {
			if k := rec.timeKey(); k < s.lastKey {
				metMergeOutOfInterval.Inc()
			} else {
				s.lastKey = k
			}
		}
		return rec, nil
	}
}

// Close releases stream resources (including the elem source of a
// push-mode stream). Safe to call multiple times, and — for push-mode
// streams — from another goroutine: closing the source unblocks a
// NextElem waiting on it. Pull-mode streams must not be closed
// concurrently with an in-flight Next/NextElem.
func (s *Stream) Close() error {
	alreadyClosed := s.closed.Swap(true)
	// Unconditional: Next marks a pull stream closed on EOF without a
	// Close call, and the registry delete is idempotent.
	unregisterStream(s)
	if s.elemSrc != nil {
		return s.elemSrc.Close()
	}
	if s.stopPipeline != nil {
		// Abandon the prefetch workers of an unfinished pipeline; they
		// close their dump files and exit.
		s.stopPipeline()
	}
	if !alreadyClosed && s.merger != nil {
		s.merger.Close()
		s.merger = nil
	}
	return nil
}

// Records returns a range-over-func iterator over the stream's
// records, the Go-idiomatic form of the Next loop:
//
//	for rec := range s.Records() { ... }
//	if err := s.Err(); err != nil { ... }
//
// The loop ends at end of stream or on error; Err reports which
// (bufio.Scanner style: nil after a clean end). Breaking out of the
// loop leaves the stream usable — iteration is a view over the same
// cursor Next advances, so a later Records, Elems, Next or NextElem
// call continues where the loop stopped.
func (s *Stream) Records() iter.Seq[*Record] {
	return func(yield func(*Record) bool) {
		for {
			rec, err := s.Next()
			if err != nil {
				s.setErr(err)
				return
			}
			if !yield(rec) {
				return
			}
		}
	}
}

// Elems returns a range-over-func iterator over (record, elem) pairs,
// applying the elem-level filters exactly as NextElem does:
//
//	for rec, elem := range s.Elems() { ... }
//	if err := s.Err(); err != nil { ... }
//
// See Records for termination and resumption semantics.
func (s *Stream) Elems() iter.Seq2[*Record, *Elem] {
	return func(yield func(*Record, *Elem) bool) {
		for {
			rec, elem, err := s.NextElem()
			if err != nil {
				s.setErr(err)
				return
			}
			if !yield(rec, elem) {
				return
			}
		}
	}
}

// Err returns the error that terminated a Records or Elems loop, or
// nil when the stream ended cleanly (io.EOF) or no loop has finished.
// Live streams cancelled through their context report the context's
// error.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Stream) setErr(err error) {
	if errors.Is(err, io.EOF) {
		err = nil
	}
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

// NextElem iterates the stream elem by elem, applying the elem-level
// filters. It returns the elem together with the record it came from;
// io.EOF signals end of stream. Records whose payload fails to decode
// are skipped (their count is available via Stats in higher layers).
//
// Lifetime contract: the returned elem is decoded through the stream's
// per-reader arenas. It is guaranteed valid until the next pull
// (NextElem/Next) on this stream; callers that retain elems across
// pulls must copy them with Elem.Clone. (The current arenas are
// append-only, so handed-out elems are not actually recycled, but only
// the one-pull guarantee is contractual.)
func (s *Stream) NextElem() (*Record, *Elem, error) {
	for {
		if s.curRecord != nil && s.elemIdx < len(s.curElems) {
			e := &s.curElems[s.elemIdx]
			s.elemIdx++
			if s.compiled.Load().MatchElem(e) {
				s.elemsOut.Add(1)
				s.lastElemKey.Store(s.curRecord.timeKey())
				metStreamElems.Inc()
				return s.curRecord, e, nil
			}
			metStreamFilterRejected.Inc()
			continue
		}
		rec, err := s.Next()
		if err != nil {
			return nil, nil, err
		}
		elems, err := s.decodeElems(rec)
		if err != nil {
			// Undecodable payload inside a structurally valid record:
			// treat like a corrupted record and continue.
			continue
		}
		s.curRecord = rec
		s.curElems = elems
		s.elemIdx = 0
	}
}

// decodeElems decomposes rec into elems through the stream's elem
// arena: the returned slice is carved out of a shared chunk, so the
// per-record []Elem header allocation amortises over ~elemArenaChunk
// elems. Chunks are replaced, never rewound — elems stay valid while
// referenced. Synth records (push feeds) return their pre-decomposed
// elems directly.
func (s *Stream) decodeElems(rec *Record) ([]Elem, error) {
	if rec.synth != nil {
		return rec.synth, nil
	}
	buf := s.elemArena
	if cap(buf)-len(buf) < elemArenaSpare {
		if s.elemArenaNext < minElemArena {
			s.elemArenaNext = minElemArena
		}
		buf = make([]Elem, 0, s.elemArenaNext)
		if s.elemArenaNext < maxElemArena {
			s.elemArenaNext *= 2
		}
	}
	start := len(buf)
	buf, err := rec.appendElems(buf, &s.dec)
	if err != nil {
		return nil, err
	}
	s.elemArena = buf
	return buf[start:len(buf):len(buf)], nil
}
