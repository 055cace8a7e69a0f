package bgpstream

import (
	"context"
	"errors"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/gaprepair"
)

// openConfig accumulates the functional options of Open.
type openConfig struct {
	src           Source
	srcName       string // registry name of src, for SourceHealth ("" for instances)
	repair        Source // backfill source; non-nil wraps src in gap repair
	repairOpts    RepairOptions
	repairOptsSet bool
	filters       Filters
	// tune holds the stream setters WithDecodeWorkers / WithReadahead
	// queue. Open applies them after the source built the stream, so
	// an explicit option wins over the source's registry option and an
	// unset one leaves it alone.
	tune []func(*Stream)
}

// Option configures Open.
type Option func(*openConfig) error

// WithSource selects a registered source by name with per-source
// options. See Sources() for the registry and each source's options:
//
//	bgpstream.Open(ctx,
//		bgpstream.WithSource("broker", bgpstream.SourceOptions{"url": "http://localhost:8472"}),
//		bgpstream.WithFilterString("collector rrc00 and elemtype announcements"))
func WithSource(name string, opts SourceOptions) Option {
	return func(c *openConfig) error {
		src, err := OpenSource(name, opts)
		if err != nil {
			return err
		}
		c.src = src
		c.srcName = name
		return nil
	}
}

// WithSourceInstance supplies an already-constructed source: a Source,
// any pull DataInterface (Directory, CSVFile, SingleFiles, a
// BrokerClient), or any push ElemSource (a RISLiveClient). This is the
// escape hatch for sources that need programmatic configuration beyond
// string options.
func WithSourceInstance(src any) Option {
	return func(c *openConfig) error {
		s, err := core.AsSource(src)
		if err != nil {
			return err
		}
		c.src = s
		c.srcName = ""
		return nil
	}
}

// WithRepair turns a lossy push stream into a complete one: loss
// windows the live source reports (reconnects, server-side slow-client
// drops) are backfilled from the named archive-class source and
// spliced into the flow in time order, deduplicated against what the
// live side already delivered. The stream's own filters — narrowed to
// each loss window — drive the backfill, so spliced elems pass exactly
// the predicate live elems do:
//
//	bgpstream.Open(ctx,
//		bgpstream.WithSource("rislive", bgpstream.SourceOptions{"url": feedURL}),
//		bgpstream.WithRepair("broker", bgpstream.SourceOptions{"url": brokerURL}))
//
// The wrapped source must be push-based (pull sources are already
// complete). Gap and repair counters surface through
// Stream.SourceStats. The equivalent registry form is the "repaired"
// source, which names both halves as options.
func WithRepair(backfillName string, opts SourceOptions) Option {
	return func(c *openConfig) error {
		b, err := OpenSource(backfillName, opts)
		if err != nil {
			return err
		}
		c.repair = b
		return nil
	}
}

// WithRepairInstance is WithRepair for an already-constructed backfill
// source (a Source or pull DataInterface). Every loss window reopens
// the backfill source, and a DataInterface is a single-use cursor: a
// bare one repairs the first window only. Pass a Source that builds
// its DataInterface per OpenStream (or use WithRepair) to repair them
// all.
func WithRepairInstance(backfill any) Option {
	return func(c *openConfig) error {
		b, err := core.AsSource(backfill)
		if err != nil {
			return err
		}
		c.repair = b
		return nil
	}
}

// WithRepairOptions tunes the repair pipeline of WithRepair /
// WithRepairInstance: backfill concurrency, retry budget, holdback and
// fetch-timeout bounds, the time-driven poll cadence, and the cursor
// path that makes repairs survive process restarts (the cursor
// persists the delivered watermark plus unrepaired windows; on start
// the downtime itself becomes a repairable "restart" gap). A zero
// value in any field keeps that default.
func WithRepairOptions(opts RepairOptions) Option {
	return func(c *openConfig) error {
		c.repairOpts = opts
		c.repairOptsSet = true
		return nil
	}
}

// WithDecodeWorkers bounds the decode workers of the parallel ingest
// pipeline on pull (dump-file) streams: up to n dump files are
// opened, gunzipped and MRT-parsed concurrently while the merge heap
// pops ready records, keeping the §3.3.4 time order byte-for-byte
// identical to a sequential run. n <= 0 (the
// default) selects GOMAXPROCS; n == 1 selects the sequential in-line
// pipeline. Push streams ignore it. The registry equivalent is the
// "decode-workers" option of the pull sources.
func WithDecodeWorkers(n int) Option {
	return func(c *openConfig) error {
		c.tune = append(c.tune, func(s *Stream) { s.SetDecodeWorkers(n) })
		return nil
	}
}

// WithReadahead bounds the per-dump-file readahead queue of the
// parallel ingest pipeline, in decoded records (default 64, one decode
// batch: each open dump file holds at most two batches decoded ahead
// of the merge). Larger values smooth bursty decode against a slow
// consumer at the cost of memory; the registry equivalent is the
// "readahead" option of the pull sources.
func WithReadahead(records int) Option {
	return func(c *openConfig) error {
		c.tune = append(c.tune, func(s *Stream) { s.SetReadahead(records) })
		return nil
	}
}

// WithFilters merges a Filters value into the stream configuration:
// slice dimensions append, a non-zero Start/End overwrites, Live turns
// on. Combines freely with WithFilterString.
func WithFilters(f Filters) Option {
	return func(c *openConfig) error {
		mergeFilters(&c.filters, f)
		return nil
	}
}

// WithFilterString merges a BGPStream v2 filter string (see
// ParseFilterString for the grammar) into the stream configuration:
//
//	bgpstream.WithFilterString("collector rrc00 and prefix more 10.0.0.0/8 and elemtype announcements")
func WithFilterString(q string) Option {
	return func(c *openConfig) error {
		f, err := ParseFilterString(q)
		if err != nil {
			return err
		}
		mergeFilters(&c.filters, f)
		return nil
	}
}

// WithInterval bounds the stream to records in [start, end] — the
// historical mode of §3.3.1. A zero end means "up to the newest
// available data".
func WithInterval(start, end time.Time) Option {
	return func(c *openConfig) error {
		c.filters.Start, c.filters.End, c.filters.Live = start, end, false
		return nil
	}
}

// WithLive starts at start and never ends — the C API's interval end
// of -1, converting any program into a live monitor. Pass the zero
// time to start at the newest available data.
func WithLive(start time.Time) Option {
	return func(c *openConfig) error {
		c.filters.Start, c.filters.End, c.filters.Live = start, time.Time{}, true
		return nil
	}
}

// Open is the stream constructor: it binds a source (pull or push,
// named or instance) to the accumulated filters and returns the
// running stream.
//
//	s, err := bgpstream.Open(ctx,
//		bgpstream.WithSource("directory", bgpstream.SourceOptions{"path": "./archive"}),
//		bgpstream.WithFilterString("type updates and prefix more 10.0.0.0/8"),
//		bgpstream.WithInterval(start, end))
//	if err != nil { ... }
//	defer s.Close()
//	for rec, elem := range s.Elems() { ... }
//	if err := s.Err(); err != nil { ... }
//
// The context bounds blocking operations (live polling, push feeds);
// pass context.Background() for unbounded historical runs. Options
// apply in order, so a later WithSource wins and filter options
// accumulate.
func Open(ctx context.Context, opts ...Option) (*Stream, error) {
	cfg := &openConfig{}
	for _, opt := range opts {
		if err := opt(cfg); err != nil {
			return nil, err
		}
	}
	if cfg.src == nil {
		return nil, errors.New("bgpstream: Open needs a source (use WithSource or WithSourceInstance)")
	}
	if cfg.repairOptsSet && cfg.repair == nil {
		// Silently ignoring a cursor path or concurrency bound would
		// hide a miswired stream; the options only mean something on a
		// repaired one.
		return nil, errors.New("bgpstream: WithRepairOptions needs WithRepair or WithRepairInstance")
	}
	src := cfg.src
	name := cfg.srcName
	if cfg.repair != nil {
		src = &gaprepair.Composite{Live: src, Backfill: cfg.repair, Options: cfg.repairOpts}
		if name != "" {
			name += "+repaired"
		} else {
			name = "repaired"
		}
	}
	s, err := src.OpenStream(ctx, cfg.filters)
	if err != nil {
		return nil, err
	}
	if name != "" {
		s.SetSourceName(name)
	}
	for _, set := range cfg.tune {
		set(s)
	}
	return s, nil
}

// mergeFilters folds src into dst: slices append, interval fields
// overwrite when set.
func mergeFilters(dst *Filters, src Filters) {
	dst.Projects = append(dst.Projects, src.Projects...)
	dst.Collectors = append(dst.Collectors, src.Collectors...)
	dst.DumpTypes = append(dst.DumpTypes, src.DumpTypes...)
	dst.ElemTypes = append(dst.ElemTypes, src.ElemTypes...)
	dst.PeerASNs = append(dst.PeerASNs, src.PeerASNs...)
	dst.OriginASNs = append(dst.OriginASNs, src.OriginASNs...)
	dst.ASPathContains = append(dst.ASPathContains, src.ASPathContains...)
	dst.Prefixes = append(dst.Prefixes, src.Prefixes...)
	dst.Communities = append(dst.Communities, src.Communities...)
	dst.IPVersions = append(dst.IPVersions, src.IPVersions...)
	if !src.Start.IsZero() {
		dst.Start = src.Start
	}
	if !src.End.IsZero() {
		dst.End = src.End
	}
	if src.Live {
		dst.Live = true
	}
}
