// Command bgpreader outputs BGPStream records and elems in ASCII — a
// drop-in replacement for the classic bgpdump tool (§4.1) that adds
// multi-file/multi-collector/multi-project reading, live mode, and
// filters.
//
// Filters are given either as one declarative BGPStream v2 filter
// string (-filter) or as the classic per-dimension flags; the two
// styles cannot be mixed.
//
// Examples:
//
//	# all updates about sub-prefixes of 192.0.0.0/8 since a time,
//	# following new data forever (live mode):
//	bgpreader -broker http://localhost:8472 -w 1463011200 \
//	    -filter "type updates and prefix 192.0.0.0/8"
//
//	# the same with classic flags:
//	bgpreader -broker http://localhost:8472 -w 1463011200 -t updates -k 192.0.0.0/8
//
//	# historical window over a local archive, bgpdump -m output:
//	bgpreader -d ./archive -w 1438415400,1438416600 -m
//
//	# follow a push feed (RIS Live-style SSE, e.g. bgplivesrv) with
//	# millisecond latency instead of polling for dumps:
//	bgpreader -ris-live http://localhost:8481/v1/stream -filter "prefix 192.0.0.0/8"
//
//	# the same feed with completeness restored: loss windows
//	# (reconnects, server-side drops) are backfilled from the archive
//	# and spliced in, in time order; -v prints the gap/repair counters:
//	bgpreader -ris-live http://localhost:8481/v1/stream -repair -d ./archive -v
//
//	# the same run with the ops plane on a side listener — Prometheus
//	# /metrics, /healthz, /sources, /debug/pprof/:
//	bgpreader -ris-live http://localhost:8481/v1/stream -metrics-addr 127.0.0.1:9481
//
//	# list the source registry (names, kinds, options):
//	bgpreader -show-sources
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/bgpdump"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/obsv"

	bgpstream "github.com/bgpstream-go/bgpstream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bgpreader:", err)
		os.Exit(1)
	}
}

type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// legacyFilterFlags collects the classic per-dimension flags so the
// conflict with -filter can be reported precisely.
type legacyFilterFlags struct {
	types       string
	elemTypes   string
	projects    listFlag
	collectors  listFlag
	prefixes    listFlag
	communities listFlag
	peers       listFlag
}

// used returns the names of every legacy filter flag that was set.
func (l *legacyFilterFlags) used() []string {
	var names []string
	if l.types != "" {
		names = append(names, "-t")
	}
	if l.elemTypes != "" {
		names = append(names, "-e")
	}
	for _, f := range []struct {
		name string
		vals listFlag
	}{{"-p", l.projects}, {"-c", l.collectors}, {"-k", l.prefixes}, {"-y", l.communities}, {"-j", l.peers}} {
		if len(f.vals) > 0 {
			names = append(names, f.name)
		}
	}
	return names
}

// checkFilterConflict rejects mixing -filter with legacy flags: the
// filter string is authoritative and silently merging the two styles
// would hide typos.
func checkFilterConflict(filterStr string, legacy *legacyFilterFlags) error {
	if filterStr == "" {
		return nil
	}
	if used := legacy.used(); len(used) > 0 {
		return fmt.Errorf("-filter cannot be combined with the per-dimension filter flags (%s); express the whole filter in one string",
			strings.Join(used, ", "))
	}
	return nil
}

// filters builds core.Filters from the legacy flags.
func (l *legacyFilterFlags) filters() (core.Filters, error) {
	filters := core.Filters{Projects: l.projects, Collectors: l.collectors}
	if l.types != "" {
		dt := core.DumpType(l.types)
		if !dt.Valid() {
			return filters, fmt.Errorf("invalid -t %q", l.types)
		}
		filters.DumpTypes = []core.DumpType{dt}
	}
	for _, p := range l.prefixes {
		pf, err := parsePrefix(p)
		if err != nil {
			return filters, err
		}
		filters.Prefixes = append(filters.Prefixes, pf)
	}
	for _, c := range l.communities {
		cf, err := bgpstream.ParseCommunityFilter(c)
		if err != nil {
			return filters, err
		}
		filters.Communities = append(filters.Communities, cf)
	}
	for _, p := range l.peers {
		asn, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return filters, fmt.Errorf("invalid -j %q", p)
		}
		filters.PeerASNs = append(filters.PeerASNs, uint32(asn))
	}
	if l.elemTypes != "" {
		for _, tok := range strings.Split(l.elemTypes, ",") {
			switch strings.TrimSpace(strings.ToUpper(tok)) {
			case "A":
				filters.ElemTypes = append(filters.ElemTypes, core.ElemAnnouncement)
			case "W":
				filters.ElemTypes = append(filters.ElemTypes, core.ElemWithdrawal)
			case "R":
				filters.ElemTypes = append(filters.ElemTypes, core.ElemRIB)
			case "S":
				filters.ElemTypes = append(filters.ElemTypes, core.ElemPeerState)
			default:
				return filters, fmt.Errorf("invalid -e token %q", tok)
			}
		}
	}
	return filters, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bgpreader", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		brokerURL  = fs.String("broker", "", "BGPStream Broker URL (default data interface)")
		dir        = fs.String("d", "", "local archive directory data interface")
		csv        = fs.String("csv", "", "CSV dump-index data interface")
		risLive    = fs.String("ris-live", "", "RIS Live-style SSE feed URL (push data interface)")
		risStale   = fs.Duration("ris-live-stale", 0, "reconnect when feed messages lag the clock by this much (0 disables; useless on historical replays)")
		repair     = fs.Bool("repair", false, "backfill push-feed loss windows (reconnects, server drops) from the pull source given by -broker/-d/-csv; requires -ris-live")
		repairCur  = fs.String("repair-cursor", "", "repair cursor file: persist the completeness watermark and unrepaired windows so repairs survive restarts (requires -repair)")
		repairConc = fs.Int("repair-concurrency", 0, "backfill fetches in flight at once (0 = default 2; requires -repair)")
		decodeWrk  = fs.Int("decode-workers", 0, "parallel ingest: dump files decoded concurrently (0 = GOMAXPROCS, 1 = sequential; pull sources only)")
		readahead  = fs.Int("readahead", 0, "per-dump-file decoded-record readahead bound (0 = default 64, one batch; pull sources only)")
		fetchRetry = fs.Int("fetch-retries", 0, "attempts per transient network failure on dump fetches and broker queries (0 = default 3; pull sources only)")
		window     = fs.String("w", "", "time window: start[,end] unix seconds; omit end for live mode")
		filterStr  = fs.String("filter", "", `BGPStream v2 filter string, e.g. "collector rrc00 and prefix more 10.0.0.0/8 and elemtype announcements" (exclusive with -p/-c/-t/-e/-k/-y/-j)`)
		machine    = fs.Bool("m", false, "bgpdump -m compatible output (elems only)")
		records    = fs.Bool("r", false, "print one line per record instead of per elem")
		stopAfter  = fs.Int("n", 0, "stop after printing this many lines (0 = unbounded; bounds live runs)")
		verbose    = fs.Bool("v", false, "verbose: print the canonical filter string and source on stderr at startup, and the source completeness and pipeline counters at exit")
		metricsFl  = fs.String("metrics-addr", "", "serve the ops plane — /metrics (Prometheus text), /healthz, /sources, /debug/pprof/ — on this extra listen address")
		showSrcs   = fs.Bool("show-sources", false, "print the source registry (name, kind, options) with per-stream health, then exit")
	)
	var legacy legacyFilterFlags
	fs.StringVar(&legacy.types, "t", "", "dump type filter: ribs or updates")
	fs.StringVar(&legacy.elemTypes, "e", "", "elem type filter: any of A,W,R,S (comma separated)")
	fs.Var(&legacy.projects, "p", "project filter (repeatable)")
	fs.Var(&legacy.collectors, "c", "collector filter (repeatable)")
	fs.Var(&legacy.prefixes, "k", "prefix filter, any overlap (repeatable)")
	fs.Var(&legacy.communities, "y", "community filter asn:value with * wildcards (repeatable)")
	fs.Var(&legacy.peers, "j", "peer ASN filter (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; a help request is not a failure
		}
		return err
	}

	if *showSrcs {
		return printSources(stdout)
	}
	if err := checkFilterConflict(*filterStr, &legacy); err != nil {
		return err
	}
	if !*repair && (*repairCur != "" || *repairConc != 0) {
		return fmt.Errorf("-repair-cursor and -repair-concurrency tune the repair pipeline: they require -repair")
	}
	var filterOpt bgpstream.Option
	if *filterStr != "" {
		filterOpt = bgpstream.WithFilterString(*filterStr)
	} else {
		filters, err := legacy.filters()
		if err != nil {
			return err
		}
		filterOpt = bgpstream.WithFilters(filters)
	}
	opts := []bgpstream.Option{filterOpt}

	if *window != "" {
		start, end, live, err := parseWindow(*window)
		if err != nil {
			return err
		}
		if live {
			opts = append(opts, bgpstream.WithLive(start))
		} else {
			opts = append(opts, bgpstream.WithInterval(start, end))
		}
	}

	// Every transport goes through the unified source registry. The
	// pull flags name the backfill source when -repair wraps a push
	// feed, the main source otherwise.
	pullName, pullOpts := "", bgpstream.SourceOptions(nil)
	switch {
	case *dir != "":
		pullName, pullOpts = "directory", bgpstream.SourceOptions{"path": *dir}
	case *csv != "":
		pullName, pullOpts = "csvfile", bgpstream.SourceOptions{"path": *csv}
	case *brokerURL != "":
		pullName, pullOpts = "broker", bgpstream.SourceOptions{"url": *brokerURL}
	}
	if *decodeWrk != 0 || *readahead != 0 || *fetchRetry != 0 {
		// The pull source must actually be in the data path: it is the
		// main source, or the backfill side of -repair. Named alongside
		// -ris-live without -repair it is ignored entirely, and the
		// flags would silently do nothing.
		if pullName == "" || (*risLive != "" && !*repair) {
			return fmt.Errorf("-decode-workers, -readahead and -fetch-retries tune the dump-file ingest pipeline: they require a pull source (-broker, -d or -csv) used as the main source or as the -repair backfill")
		}
		if *decodeWrk != 0 {
			pullOpts["decode-workers"] = strconv.Itoa(*decodeWrk)
		}
		if *readahead != 0 {
			pullOpts["readahead"] = strconv.Itoa(*readahead)
		}
		if *fetchRetry != 0 {
			pullOpts["retry"] = strconv.Itoa(*fetchRetry)
		}
	}
	var srcName string
	switch {
	case *risLive != "":
		srcName = "rislive"
		// "log" surfaces connection lifecycle on stderr: without it a
		// bad URL retries forever in silence.
		srcOpts := bgpstream.SourceOptions{"url": *risLive, "stale": risStale.String(), "log": "stderr"}
		opts = append(opts, bgpstream.WithSource(srcName, srcOpts))
		if *repair {
			if pullName == "" {
				return fmt.Errorf("-repair needs a pull source (-broker, -d or -csv) to backfill from")
			}
			srcName += "+" + pullName
			opts = append(opts,
				bgpstream.WithRepair(pullName, pullOpts),
				bgpstream.WithRepairOptions(bgpstream.RepairOptions{
					Concurrency: *repairConc,
					CursorPath:  *repairCur,
				}))
		}
	case *repair:
		return fmt.Errorf("-repair wraps a push feed: it requires -ris-live")
	case pullName != "":
		srcName = pullName
		opts = append(opts, bgpstream.WithSource(pullName, pullOpts))
	default:
		return fmt.Errorf("one of -broker, -d, -csv, -ris-live is required")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *metricsFl != "" {
		ln, err := net.Listen("tcp", *metricsFl)
		if err != nil {
			return err
		}
		msrv := &http.Server{Handler: bgpstream.MetricsHandler(true)}
		go msrv.Serve(ln)
		defer msrv.Close()
		if *verbose {
			fmt.Fprintf(stderr, "bgpreader: ops plane on http://%s/metrics\n", ln.Addr())
		}
	}

	stream, err := bgpstream.Open(ctx, opts...)
	if err != nil {
		return err
	}
	defer stream.Close()

	if *verbose {
		canonical := stream.Filters().String()
		if canonical == "" {
			canonical = "<match everything>"
		}
		fmt.Fprintf(stderr, "bgpreader: source %s, filter: %s\n", srcName, canonical)
	}

	out := newBufferedWriter(stdout)
	// In live modes lines trickle in; flushing per line keeps output
	// latency at the feed's latency instead of the buffer's fill time.
	live := *risLive != "" || stream.Filters().Live
	printed := 0
	var werr error // first write or flush error: stops the loop, fails the run
	emit := func(line []byte) bool {
		if _, werr = out.Write(line); werr == nil && live {
			werr = out.Flush()
		}
		if werr != nil {
			return false
		}
		printed++
		return *stopAfter == 0 || printed < *stopAfter
	}
	// Lines are rendered into one reused scratch slice, on this
	// goroutine and before the next pull: elems are only valid until
	// then (docs/ARCHITECTURE.md, memory ownership).
	line := make([]byte, 0, 512)
	if *records {
		for rec := range stream.Records() {
			line = append(bgpdump.AppendRecord(line[:0], rec), '\n')
			if !emit(line) {
				break
			}
		}
	} else {
		for rec, elem := range stream.Elems() {
			if *machine {
				line = bgpdump.AppendElem(line[:0], rec, elem)
			} else {
				line = bgpdump.AppendElemVerbose(line[:0], rec, elem)
			}
			line = append(line, '\n')
			if !emit(line) {
				break
			}
		}
	}
	if err := out.Flush(); werr == nil {
		werr = err
	}
	if *verbose {
		// Close first: it quiesces the producer goroutines, so the
		// completeness counters and the registry totals below are final
		// values instead of racing with in-flight updates. The deferred
		// Close is a no-op after this.
		stream.Close()
		printSourceStats(stderr, stream.SourceStats())
		printPipelineCounters(stderr)
	}
	if err := stream.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("write output: %w", werr)
	}
	return nil // clean EOF, -n bound, or interrupt
}

// printSources lists the source registry with per-stream health — the
// CLI twin of the /sources endpoint.
func printSources(w io.Writer) error {
	for _, src := range bgpstream.Sources() {
		fmt.Fprintf(w, "%-10s %-4s %s\n", src.Name, src.Kind, src.Description)
		for _, opt := range src.Options {
			suffix := ""
			if opt.Default != "" {
				suffix = " (default " + opt.Default + ")"
			}
			if opt.Required {
				suffix += " (required)"
			}
			fmt.Fprintf(w, "    option %-16s %s%s\n", opt.Name, opt.Description, suffix)
		}
		for _, h := range src.Health {
			fmt.Fprintf(w, "    open since %s: %d elems, stats %+v\n",
				h.OpenedAt.UTC().Format(time.RFC3339), h.Elems, h.Stats)
		}
	}
	return nil
}

// printPipelineCounters reports the process-wide pipeline totals from
// the metrics registry — the same numbers /metrics exposes — read
// after the stream is closed so they are settled, not racing.
func printPipelineCounters(w io.Writer) {
	show := map[string]string{
		"bgpstream_stream_elems_total":             "elems",
		"bgpstream_stream_filter_rejected_total":   "filter-rejected",
		"bgpstream_prefetch_records_decoded_total": "records-decoded",
		"bgpstream_prefetch_corrupt_dumps_total":   "corrupt-dumps",
	}
	var parts []string
	for _, p := range obsv.Default.Gather() {
		if label, ok := show[p.Family]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.0f", label, p.Value))
		}
	}
	fmt.Fprintf(w, "bgpreader: pipeline: %s\n", strings.Join(parts, " "))
}

// printSourceStats reports the completeness and fault-tolerance
// counters at shutdown: push-feed repair stats (all zero on pull
// sources, which are complete by construction) plus the pull-side
// fetch retry/resume/breaker stats.
func printSourceStats(w io.Writer, st bgpstream.SourceStats) {
	fmt.Fprintf(w,
		"bgpreader: source stats: live=%d reconnects=%d upstream-dropped=%d gaps=%d "+
			"repairs=%d repair-failures=%d repairs-abandoned=%d repairs-queued=%d repairs-in-flight=%d "+
			"backfilled=%d dup-dropped=%d holdback-overflows=%d\n",
		st.LiveElems, st.Reconnects, st.UpstreamDropped, st.Gaps,
		st.Repairs, st.RepairFailures, st.RepairsAbandoned, st.RepairsQueued, st.RepairsInFlight,
		st.BackfilledElems, st.DuplicatesDropped, st.HoldbackOverflows)
	fmt.Fprintf(w,
		"bgpreader: fetch stats: retries=%d resumes=%d permanent-failures=%d "+
			"breaker-transitions=%d breakers-open=%d\n",
		st.FetchRetries, st.FetchResumes, st.FetchFailures,
		st.BreakerTransitions, st.BreakersOpen)
}

func parseWindow(s string) (start, end time.Time, live bool, err error) {
	parts := strings.SplitN(s, ",", 2)
	sec, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return start, end, false, fmt.Errorf("invalid -w start %q", parts[0])
	}
	start = time.Unix(sec, 0).UTC()
	if len(parts) == 1 {
		return start, time.Time{}, true, nil
	}
	esec, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || esec < sec {
		return start, end, false, fmt.Errorf("invalid -w end %q", parts[1])
	}
	return start, time.Unix(esec, 0).UTC(), false, nil
}

func parsePrefix(s string) (core.PrefixFilter, error) {
	p, err := parseNetipPrefix(s)
	if err != nil {
		return core.PrefixFilter{}, fmt.Errorf("invalid -k %q: %w", s, err)
	}
	return core.PrefixFilter{Prefix: p, Match: core.MatchAny}, nil
}
