package bgpstream

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/archive"
	"github.com/bgpstream-go/bgpstream/internal/broker"
	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/gaprepair"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// SourceOptions carries per-source configuration as string key/value
// pairs, mirroring the C API's bgpstream_set_data_interface_option.
// Every option a source supports is listed in its SourceInfo; unknown
// keys are rejected by OpenSource.
type SourceOptions map[string]string

// SourceOption documents one option a registered source accepts.
type SourceOption struct {
	Name        string
	Description string
	// Default is the rendered default value ("" when none).
	Default string
	// Required marks options OpenSource refuses to proceed without.
	Required bool
}

// SourceInfo describes a registered source, the Go form of the C
// API's bgpstream_data_interface_info.
type SourceInfo struct {
	// Name is the registry key ("broker", "directory", ...).
	Name        string
	Description string
	// Kind is "pull" (dump-file meta-data, minutes-latency) or "push"
	// (per-elem messages, milliseconds-latency).
	Kind    string
	Options []SourceOption
	// Health lists the open streams built from this source, attached
	// by Sources at call time (always empty at registration). Streams
	// opened through WithSourceInstance carry no source name and
	// appear only in ActiveSources.
	Health []SourceHealth `json:",omitempty"`
}

// SourceFactory builds a Source from validated options. Factories
// should validate option values eagerly and defer only the
// filter-dependent construction to the returned Source's OpenStream.
type SourceFactory func(opts SourceOptions) (Source, error)

type sourceRegistration struct {
	info    SourceInfo
	factory SourceFactory
}

var sourceRegistry = struct {
	sync.RWMutex
	m map[string]sourceRegistration
}{m: map[string]sourceRegistration{}}

// RegisterSource adds a named source to the registry (replacing any
// previous registration of the same name), making it reachable from
// OpenSource and Open(WithSource(...)). The built-in sources register
// themselves at init; embedders add their own transports the same way.
func RegisterSource(info SourceInfo, factory SourceFactory) {
	if info.Name == "" || factory == nil {
		panic("bgpstream: RegisterSource needs a name and a factory")
	}
	sourceRegistry.Lock()
	defer sourceRegistry.Unlock()
	sourceRegistry.m[info.Name] = sourceRegistration{info: info, factory: factory}
}

// Sources lists every registered source sorted by name, the Go form
// of bgpstream_get_data_interfaces, with the health of any open
// streams attached per source (see SourceInfo.Health).
func Sources() []SourceInfo {
	sourceRegistry.RLock()
	out := make([]SourceInfo, 0, len(sourceRegistry.m))
	for _, reg := range sourceRegistry.m {
		out = append(out, reg.info)
	}
	sourceRegistry.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	byName := make(map[string][]SourceHealth)
	for _, h := range core.ActiveSourceHealth() {
		if h.Source != "" {
			byName[h.Source] = append(byName[h.Source], h)
		}
	}
	for i := range out {
		out[i].Health = byName[out[i].Name]
	}
	return out
}

// OpenSource builds the named source from the registry with the given
// options. Unknown source names, unknown option keys, and missing
// required options are errors that name the valid alternatives. The
// returned Source binds filters when opened (directly via OpenStream,
// or through Open).
func OpenSource(name string, opts SourceOptions) (Source, error) {
	sourceRegistry.RLock()
	reg, ok := sourceRegistry.m[name]
	sourceRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("bgpstream: unknown source %q (registered: %s)",
			name, strings.Join(sourceNames(), ", "))
	}
	valid := make(map[string]bool, len(reg.info.Options))
	var optNames, prefixes []string
	for _, o := range reg.info.Options {
		valid[o.Name] = true
		optNames = append(optNames, o.Name)
		// An option named "live.*" accepts any "live."-prefixed key;
		// composite sources use this to forward options to the
		// sources they wrap.
		if strings.HasSuffix(o.Name, ".*") {
			prefixes = append(prefixes, strings.TrimSuffix(o.Name, "*"))
		}
	}
	for k := range opts {
		if valid[k] || matchesPrefix(k, prefixes) {
			continue
		}
		return nil, fmt.Errorf("bgpstream: source %q has no option %q (options: %s)",
			name, k, strings.Join(optNames, ", "))
	}
	for _, o := range reg.info.Options {
		if o.Required && opts[o.Name] == "" {
			return nil, fmt.Errorf("bgpstream: source %q requires option %q (%s)",
				name, o.Name, o.Description)
		}
	}
	return reg.factory(opts)
}

func matchesPrefix(key string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(key, p) && len(key) > len(p) {
			return true
		}
	}
	return false
}

// subOptions extracts the options under one composite prefix
// ("live." → {"live.url": v} becomes {"url": v}).
func subOptions(opts SourceOptions, prefix string) SourceOptions {
	sub := SourceOptions{}
	for k, v := range opts {
		if strings.HasPrefix(k, prefix) && len(k) > len(prefix) {
			sub[strings.TrimPrefix(k, prefix)] = v
		}
	}
	return sub
}

func sourceNames() []string {
	sourceRegistry.RLock()
	defer sourceRegistry.RUnlock()
	names := make([]string, 0, len(sourceRegistry.m))
	for n := range sourceRegistry.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// optInt parses an optional integer-valued option; missing or empty
// means def.
func optInt(name string, opts SourceOptions, key string, def int) (int, error) {
	v := opts[key]
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bgpstream: source %q option %q: bad count %q", name, key, v)
	}
	return n, nil
}

// optDuration parses an optional duration-valued option ("10s",
// "1m30s"); missing or empty means def.
func optDuration(name string, opts SourceOptions, key string, def time.Duration) (time.Duration, error) {
	v := opts[key]
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bgpstream: source %q option %q: bad duration %q", name, key, v)
	}
	return d, nil
}

// pipelineOptions are the parallel-ingest options every pull source
// accepts, mirroring WithDecodeWorkers / WithReadahead.
var pipelineOptions = []SourceOption{
	{Name: "decode-workers", Description: "parallel ingest: dump files decoded concurrently (1 = sequential)", Default: "GOMAXPROCS"},
	{Name: "readahead", Description: "per-dump-file decoded-record readahead bound", Default: "64"},
}

// pipelineOpts parses the shared parallel-ingest options of a pull
// source.
func pipelineOpts(name string, opts SourceOptions) (workers, readahead int, err error) {
	if workers, err = optInt(name, opts, "decode-workers", 0); err != nil {
		return 0, 0, err
	}
	if readahead, err = optInt(name, opts, "readahead", 0); err != nil {
		return 0, 0, err
	}
	return workers, readahead, nil
}

// resilienceOptions are the fault-tolerance options every pull source
// accepts, mirroring Stream.SetFetchPolicy / SetBreakerThreshold.
var resilienceOptions = []SourceOption{
	{Name: "retry", Description: "fetch attempts per transient network failure (dump open/resume, broker query)", Default: "3"},
	{Name: "retry-backoff", Description: "delay before the second fetch attempt, doubled per retry with jitter", Default: "250ms"},
	{Name: "breaker-threshold", Description: "consecutive per-host fetch failures that open the circuit breaker (0 disables)", Default: "5"},
}

// resilienceOpts parses the shared fault-tolerance options of a pull
// source. Options left unset keep their zero value, which the fetcher
// and breaker read as "defaults".
func resilienceOpts(name string, opts SourceOptions) (pol resilience.Policy, threshold int, err error) {
	if v := opts["retry"]; v != "" {
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 1 {
			return pol, 0, fmt.Errorf("bgpstream: source %q option %q: bad attempt count %q", name, "retry", v)
		}
		pol.MaxAttempts = n
	}
	if pol.Backoff, err = optDuration(name, opts, "retry-backoff", 0); err != nil {
		return pol, 0, err
	}
	if v := opts["breaker-threshold"]; v != "" {
		n, aerr := strconv.Atoi(v)
		if aerr != nil || n < 0 {
			return pol, 0, fmt.Errorf("bgpstream: source %q option %q: bad threshold %q", name, "breaker-threshold", v)
		}
		if n == 0 {
			threshold = -1 // the stream API uses negative for "disabled"
		} else {
			threshold = n
		}
	}
	return pol, threshold, nil
}

// pullPipelined builds a registry pull source from newDI, which makes
// the source's data interface, and applies the shared parallel-ingest
// and fault-tolerance options. newDI runs once per OpenStream: a
// DataInterface is a single-use cursor, and a registry Source must be
// reopenable (gap repair opens its backfill source once per loss
// window). newDI also receives the parsed fetch policy, for interfaces
// that query over the network themselves.
func pullPipelined(name string, opts SourceOptions, newDI func(Filters, resilience.Policy) core.DataInterface) (Source, error) {
	workers, readahead, err := pipelineOpts(name, opts)
	if err != nil {
		return nil, err
	}
	pol, threshold, err := resilienceOpts(name, opts)
	if err != nil {
		return nil, err
	}
	return core.SourceFunc(func(ctx context.Context, f Filters) (*Stream, error) {
		s := core.NewStream(ctx, newDI(f, pol), f)
		s.SetDecodeWorkers(workers)
		s.SetReadahead(readahead)
		s.SetFetchPolicy(pol)
		s.SetBreakerThreshold(threshold)
		return s, nil
	}), nil
}

// The built-in sources, mirroring the data interfaces of the C API
// (§3.2: broker, single file, CSV file, local directory) plus the
// push-based rislive transport of PR 1.
func init() {
	RegisterSource(SourceInfo{
		Name:        "broker",
		Description: "BGPStream Broker meta-data service (the default way to consume public archives)",
		Kind:        "pull",
		Options: append(append([]SourceOption{
			{Name: "url", Description: "broker service root, e.g. http://localhost:8472", Required: true},
			{Name: "poll", Description: "live-mode polling period", Default: "10s"},
			{Name: "window", Description: "override the broker's response window", Default: "broker-chosen"},
		}, pipelineOptions...), resilienceOptions...),
	}, func(opts SourceOptions) (Source, error) {
		poll, err := optDuration("broker", opts, "poll", 0)
		if err != nil {
			return nil, err
		}
		window, err := optDuration("broker", opts, "window", 0)
		if err != nil {
			return nil, err
		}
		url := opts["url"]
		return pullPipelined("broker", opts, func(f Filters, pol resilience.Policy) core.DataInterface {
			c := broker.NewClient(url, f)
			if poll > 0 {
				c.PollInterval = poll
			}
			c.Window = window
			// The same policy governs meta-data queries and dump
			// fetches: one knob for the whole network edge.
			c.Retry = pol
			return c
		})
	})

	RegisterSource(SourceInfo{
		Name:        "directory",
		Description: "local archive tree in the collector-project on-disk layout",
		Kind:        "pull",
		Options: append(append([]SourceOption{
			{Name: "path", Description: "archive root directory", Required: true},
		}, pipelineOptions...), resilienceOptions...),
	}, func(opts SourceOptions) (Source, error) {
		dir := opts["path"]
		return pullPipelined("directory", opts, func(Filters, resilience.Policy) core.DataInterface {
			return &core.Directory{Dir: dir}
		})
	})

	RegisterSource(SourceInfo{
		Name:        "csvfile",
		Description: "CSV dump index: project,collector,type,unix_start,duration_seconds,url per line",
		Kind:        "pull",
		Options: append(append([]SourceOption{
			{Name: "path", Description: "CSV index file", Required: true},
		}, pipelineOptions...), resilienceOptions...),
	}, func(opts SourceOptions) (Source, error) {
		path := opts["path"]
		return pullPipelined("csvfile", opts, func(Filters, resilience.Policy) core.DataInterface {
			return &core.CSVFile{Path: path}
		})
	})

	RegisterSource(SourceInfo{
		Name:        "singlefile",
		Description: "explicit dump files, no meta-data service (the C API's single-file interface)",
		Kind:        "pull",
		Options: append(append([]SourceOption{
			{Name: "rib-file", Description: "path or URL of a RIB dump (this or upd-file is required)"},
			{Name: "upd-file", Description: "path or URL of an updates dump (this or rib-file is required)"},
			{Name: "project", Description: "project annotation on the records", Default: "singlefile"},
			{Name: "collector", Description: "collector annotation on the records", Default: "singlefile"},
			{Name: "time", Description: "nominal dump start, unix seconds (zero = unknown: the dump always passes interval meta-filtering and records are time-filtered individually)", Default: "0"},
			{Name: "duration", Description: "nominal dump duration, e.g. 8h", Default: "0s"},
		}, pipelineOptions...), resilienceOptions...),
	}, func(opts SourceOptions) (Source, error) {
		if opts["rib-file"] == "" && opts["upd-file"] == "" {
			return nil, fmt.Errorf(`bgpstream: source "singlefile" requires option "rib-file" or "upd-file"`)
		}
		project, collector := opts["project"], opts["collector"]
		if project == "" {
			project = "singlefile"
		}
		if collector == "" {
			collector = "singlefile"
		}
		var ts time.Time
		if v := opts["time"]; v != "" && v != "0" {
			sec, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf(`bgpstream: source "singlefile" option "time": bad unix seconds %q`, v)
			}
			ts = time.Unix(sec, 0).UTC()
		}
		dur, err := optDuration("singlefile", opts, "duration", 0)
		if err != nil {
			return nil, err
		}
		var metas []DumpMeta
		if u := opts["rib-file"]; u != "" {
			metas = append(metas, archive.DumpMeta{
				Project: project, Collector: collector, Type: DumpRIB,
				Time: ts, Duration: dur, URL: u,
			})
		}
		if u := opts["upd-file"]; u != "" {
			metas = append(metas, archive.DumpMeta{
				Project: project, Collector: collector, Type: DumpUpdates,
				Time: ts, Duration: dur, URL: u,
			})
		}
		return pullPipelined("singlefile", opts, func(Filters, resilience.Policy) core.DataInterface {
			return &core.SingleFiles{Metas: metas}
		})
	})

	RegisterSource(SourceInfo{
		Name:        "rislive",
		Description: "RIS Live-style push feed (bgplivesrv, rislive.Server) over SSE or WebSocket; millisecond latency",
		Kind:        "push",
		Options: []SourceOption{
			{Name: "url", Description: "feed endpoint, e.g. http://localhost:8481/v1/stream or ws://localhost:8481/v1/ws", Required: true},
			{Name: "transport", Description: `wire framing: "sse", "ws", or "" to pick by URL scheme (ws/wss connect over WebSocket)`},
			{Name: "stale", Description: "reconnect when messages lag the clock by this much (0 disables)", Default: "0s"},
			{Name: "backoff", Description: "initial reconnect delay, doubled per consecutive failure", Default: "500ms"},
			{Name: "log", Description: `"stderr" surfaces connection lifecycle logs`},
		},
	}, func(opts SourceOptions) (Source, error) {
		stale, err := optDuration("rislive", opts, "stale", 0)
		if err != nil {
			return nil, err
		}
		backoff, err := optDuration("rislive", opts, "backoff", 0)
		if err != nil {
			return nil, err
		}
		switch opts["transport"] {
		case rislive.TransportAuto, rislive.TransportSSE, rislive.TransportWS:
		default:
			return nil, fmt.Errorf(`bgpstream: source "rislive" option "transport": want "sse", "ws", or empty, got %q`, opts["transport"])
		}
		switch opts["log"] {
		case "", "stderr":
		default:
			return nil, fmt.Errorf(`bgpstream: source "rislive" option "log": want "stderr", got %q`, opts["log"])
		}
		url, transport, logDest := opts["url"], opts["transport"], opts["log"]
		return core.SourceFunc(func(ctx context.Context, f Filters) (*Stream, error) {
			// The subscription pushes the server-enforceable dimensions
			// upstream; the stream re-applies every filter locally, so
			// its configuration stays authoritative.
			c := rislive.NewClient(url, rislive.SubscriptionFromFilters(f))
			c.Transport = transport
			c.Staleness = stale
			c.Backoff = backoff
			if logDest == "stderr" {
				c.Logf = log.Printf
			}
			return core.NewLiveStream(ctx, c, f), nil
		}), nil
	})

	RegisterSource(SourceInfo{
		Name: "repaired",
		Description: "gap-repaired composite: a push feed backfilled from an archive-class source " +
			"(push latency, pull completeness)",
		Kind: "push",
		Options: []SourceOption{
			{Name: "live", Description: "name of the push source to repair", Default: "rislive"},
			{Name: "backfill", Description: "name of the pull source gaps are backfilled from", Required: true},
			{Name: "live.*", Description: "options forwarded to the live source (live.url, ...)"},
			{Name: "backfill.*", Description: "options forwarded to the backfill source (backfill.url, backfill.path, ...)"},
			{Name: "holdback", Description: "max live elems buffered while a gap window closes", Default: "8192"},
			{Name: "timeout", Description: "per-attempt backfill fetch timeout", Default: "30s"},
			{Name: "concurrency", Description: "backfill fetches in flight at once", Default: "2"},
			{Name: "retries", Description: "fetch attempts per window before it is abandoned", Default: "3"},
			{Name: "retry-backoff", Description: "delay before the second fetch attempt, doubled per retry", Default: "500ms"},
			{Name: "poll", Description: "time-driven repair poll cadence (gap drain + quiet-feed splice checks)", Default: "1s"},
			{Name: "cursor", Description: "repair cursor file: persists the watermark and unrepaired windows so repairs survive restarts"},
			{Name: "log", Description: `"stderr" surfaces repair lifecycle logs`},
		},
	}, func(opts SourceOptions) (Source, error) {
		liveName := opts["live"]
		if liveName == "" {
			liveName = "rislive"
		}
		live, err := OpenSource(liveName, subOptions(opts, "live."))
		if err != nil {
			return nil, err
		}
		backfill, err := OpenSource(opts["backfill"], subOptions(opts, "backfill."))
		if err != nil {
			return nil, err
		}
		holdback, err := optInt("repaired", opts, "holdback", 0)
		if err != nil {
			return nil, err
		}
		timeout, err := optDuration("repaired", opts, "timeout", 0)
		if err != nil {
			return nil, err
		}
		concurrency, err := optInt("repaired", opts, "concurrency", 0)
		if err != nil {
			return nil, err
		}
		retries, err := optInt("repaired", opts, "retries", 0)
		if err != nil {
			return nil, err
		}
		retryBackoff, err := optDuration("repaired", opts, "retry-backoff", 0)
		if err != nil {
			return nil, err
		}
		poll, err := optDuration("repaired", opts, "poll", 0)
		if err != nil {
			return nil, err
		}
		var logf func(string, ...any)
		switch opts["log"] {
		case "":
		case "stderr":
			logf = log.Printf
		default:
			return nil, fmt.Errorf(`bgpstream: source "repaired" option "log": want "stderr", got %q`, opts["log"])
		}
		return &gaprepair.Composite{
			Live:     live,
			Backfill: backfill,
			Options: gaprepair.Options{
				HoldbackLimit: holdback,
				Timeout:       timeout,
				Concurrency:   concurrency,
				RetryMax:      retries,
				RetryBackoff:  retryBackoff,
				PollInterval:  poll,
				CursorPath:    opts["cursor"],
				Logf:          logf,
			},
		}, nil
	})
}
