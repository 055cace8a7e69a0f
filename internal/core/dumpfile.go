package core

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/mrt"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// httpClient is the shared client used to stream remote dump files.
// Only the connect phase is bounded; reads may legitimately last as
// long as the file (large RIB dumps), so no overall request timeout.
var httpClient = &http.Client{
	Transport: &http.Transport{
		ResponseHeaderTimeout: 30 * time.Second,
		MaxIdleConnsPerHost:   4,
	},
}

// defaultFetcher serves dump sources constructed without a stream
// (tests, tools): default retry policy, per-host breakers at default
// threshold. Streams build their own fetcher so retry/resume counters
// are attributable per stream (Stream.SourceStats).
var defaultFetcher = &resilience.Fetcher{
	Client:   httpClient,
	Breakers: resilience.NewBreakerSet(0, 0),
}

// openDump opens a dump by URL: http(s) URLs stream straight from the
// connection (no local copy, matching libBGPStream §5) through the
// resuming fetcher — transient failures are retried with backoff and
// a transfer cut mid-body re-attaches at the consumed byte offset —
// while anything else is a local path. Returned errors are classified
// (resilience.IsPermanent): a permanent error means the URL is dead,
// not flaky.
func openDump(ctx context.Context, fetch *resilience.Fetcher, url string) (io.ReadCloser, error) {
	if strings.HasPrefix(url, "http://") || strings.HasPrefix(url, "https://") {
		if fetch == nil {
			fetch = defaultFetcher
		}
		return fetch.Open(ctx, url)
	}
	return os.Open(url)
}

// openDumps counts the dump files open across the process.
var openDumps atomic.Int64

// dumpSource reads one dump file as a queue of *Record, implementing
// merge.Source. It opens the file lazily on first use, annotates
// records with dump meta-data and start/end positions, tracks the
// TABLE_DUMP_V2 peer index, clamps records to the stream interval,
// and converts I/O or decode corruption into a single invalid record
// (the §3.3.3 "not-valid" status) rather than an error.
type dumpSource struct {
	meta archive.DumpMeta
	// window is the stream's filter snapshot at batch build, read only
	// for the record time window (nil: no time filter). Snapshots are
	// immutable, so decode workers read it without locking.
	window *CompiledFilters
	// ctx bounds the fetch (the stream's context); fetch is the
	// resilient opener shared across the stream's dump sources, nil
	// selecting the package default.
	ctx   context.Context
	fetch *resilience.Fetcher

	opened bool
	rc     io.ReadCloser
	mr     *mrt.Reader
	peers  *mrt.PeerIndexTable

	pending  *Record // lookahead so the final record can be marked PositionEnd
	first    bool
	finished bool

	// recArena batches Record allocations: records escape to the user
	// and may be retained indefinitely, so they cannot be pooled, but
	// carving them out of chunks turns one heap allocation per record
	// into one per chunk. Chunks grow geometrically (short dumps don't
	// pay a full-size chunk) and a chunk stays alive only while some
	// record in it is referenced.
	recArena     []Record
	recArenaNext int
}

// Record-arena chunk growth bounds, in records per chunk.
const (
	minRecArena = 16
	maxRecArena = 512
)

// newRecord returns a zeroed *Record from the arena.
func (s *dumpSource) newRecord() *Record {
	if len(s.recArena) == 0 {
		if s.recArenaNext < minRecArena {
			s.recArenaNext = minRecArena
		}
		s.recArena = make([]Record, s.recArenaNext)
		if s.recArenaNext < maxRecArena {
			s.recArenaNext *= 2
		}
	}
	r := &s.recArena[0]
	s.recArena = s.recArena[1:]
	return r
}

func newDumpSource(ctx context.Context, fetch *resilience.Fetcher, meta archive.DumpMeta, window *CompiledFilters) *dumpSource {
	if ctx == nil {
		ctx = context.Background()
	}
	return &dumpSource{meta: meta, window: window, ctx: ctx, fetch: fetch, first: true}
}

// invalidRecord builds the placeholder record for a broken dump.
func (s *dumpSource) invalidRecord(status RecordStatus) *Record {
	metCorruptDumps.Inc()
	return &Record{
		Project:   s.meta.Project,
		Collector: s.meta.Collector,
		DumpType:  s.meta.Type,
		DumpTime:  s.meta.Time,
		Status:    status,
		Position:  PositionStart | PositionEnd,
	}
}

func (s *dumpSource) open() error {
	rc, err := openDump(s.ctx, s.fetch, s.meta.URL)
	if err != nil {
		return err
	}
	mr, err := mrt.NewReader(rc)
	if err != nil {
		rc.Close()
		return err
	}
	// Records outlive Next, so bodies must be stable: arena allocation
	// in the reader replaces the copy-per-record this layer used to
	// make out of the reader's reusable scratch.
	mr.StableBodies(0)
	s.rc, s.mr = rc, mr
	openDumps.Add(1)
	return nil
}

// close releases the file, and the record arena, whose free records
// would pin their chunk and the reader's body chunks behind it.
func (s *dumpSource) close() {
	if s.mr != nil {
		s.mr.Close()
		s.mr = nil
	}
	if s.rc != nil {
		s.rc.Close()
		s.rc = nil
		openDumps.Add(-1)
	}
	s.recArena = nil
}

// readRecord pulls the next in-interval record from the file,
// returning (nil, io.EOF) at end of file and an invalid record when
// corruption is hit.
func (s *dumpSource) readRecord() (*Record, error) {
	for {
		if s.mr == nil {
			// Closed after corruption: the invalid record was already
			// emitted; nothing more to read.
			return nil, io.EOF
		}
		raw, err := s.mr.Next()
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		if err != nil {
			// Mid-file failure: one invalid record, then EOF.
			s.close()
			if errors.Is(err, mrt.ErrCorrupted) {
				return s.invalidRecord(StatusCorruptedRecord), nil
			}
			if errors.Is(err, mrt.ErrSourceIO) {
				// The fetch layer below already spent its retry and
				// resume budgets; the rest of the dump is unreachable,
				// which is the §3.3.3 corrupted-dump status, not an
				// error that should kill the stream.
				return s.invalidRecord(StatusCorruptedDump), nil
			}
			return nil, &StreamError{Op: "read", Dump: s.meta, Err: err}
		}
		rec := s.newRecord()
		rec.Project = s.meta.Project
		rec.Collector = s.meta.Collector
		rec.DumpType = s.meta.Type
		rec.DumpTime = s.meta.Time
		rec.Status = StatusValid
		rec.MRT = raw // body is arena-stable (StableBodies), no copy
		if raw.Header.Type == mrt.TypeTableDumpV2 && raw.Header.Subtype == mrt.SubtypePeerIndexTable {
			pit, perr := mrt.DecodePeerIndexTable(rec.MRT.Body)
			if perr != nil {
				s.close()
				return s.invalidRecord(StatusCorruptedRecord), nil
			}
			s.peers = pit
		}
		rec.peers = s.peers
		switch raw.Header.Type {
		case mrt.TypeBGP4MP, mrt.TypeBGP4MPET, mrt.TypeTableDump, mrt.TypeTableDumpV2:
		default:
			rec.Status = StatusUnsupported
		}
		if s.window != nil && !s.window.src.MatchRecordTime(rec.Time()) {
			continue
		}
		return rec, nil
	}
}

// Next implements merge.Source[*Record].
func (s *dumpSource) Next() (*Record, error) {
	if s.finished {
		return nil, io.EOF
	}
	if !s.opened {
		s.opened = true
		if err := s.open(); err != nil {
			// Can't open at all: single corrupted-dump record.
			s.finished = true
			return s.invalidRecord(StatusCorruptedDump), nil
		}
		// Prime the lookahead.
		rec, err := s.readRecord()
		if errors.Is(err, io.EOF) {
			s.finished = true
			s.close()
			return nil, io.EOF
		}
		if err != nil {
			s.finished = true
			s.close()
			return nil, err
		}
		s.pending = rec
	}
	cur := s.pending
	if cur == nil {
		s.finished = true
		s.close()
		return nil, io.EOF
	}
	next, err := s.readRecord()
	switch {
	case errors.Is(err, io.EOF):
		s.pending = nil
		cur.Position |= PositionEnd
	case err != nil:
		s.finished = true
		s.close()
		return nil, err
	default:
		s.pending = next
	}
	if s.first {
		cur.Position |= PositionStart
		s.first = false
	}
	if s.pending == nil {
		s.finished = true
		s.close()
	}
	metDecodedRecords.Inc()
	return cur, nil
}
