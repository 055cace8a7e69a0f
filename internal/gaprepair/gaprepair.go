// Package gaprepair turns a lossy push source into a complete one by
// splicing archive backfill into the live elem flow.
//
// The framework's two live latency classes (§3.3.2 of the paper) trade
// completeness for latency in opposite directions. The pull class
// (broker polling for new dump files) is archive-complete but minutes
// late; the push class (internal/rislive) is milliseconds late but
// lossy by design — rislive.Server drops messages for slow subscribers
// rather than backpressuring the feed, and a reconnecting client
// misses everything published while it was away. Analyses are acutely
// sensitive to missing vantage-point data, so this package makes
// completeness a first-class property of the push path instead of a
// silent caveat.
//
// The repairer is a three-stage concurrent pipeline, so a backfill
// fetch never stalls the intake of the live feed (a stall is itself a
// drop risk: an undrained client buffer overflows upstream):
//
//   - Pump. A dedicated goroutine drains the live source continuously
//     into the pipeline, no matter what repairs are in progress.
//
//   - Backfill workers. Loss windows the source reports through
//     core.GapReporter — or that are restored from the on-disk cursor
//     after a restart — are fetched from an archive-class core.Source
//     by a bounded worker pool, each window under a
//     resilience.Policy (bounded attempts, jittered exponential
//     backoff, Retry-After hints, permanent errors not retried). A
//     window [From, Until] is conservative: every missed elem falls
//     inside it, but elems inside it may also have been delivered.
//     Windows whose fetch fails permanently or exhausts the retry
//     budget are abandoned (counted, logged) rather than retried
//     forever.
//
//   - Splice. A coordinator holds back the live flow behind the
//     earliest outstanding window (bounded; on overflow the covered
//     part of the window is spliced and the remainder re-queued),
//     deduplicates each completed backfill against what the live side
//     already delivered by (project, collector, elem identity, µs
//     timestamp) — live copies win, backfill fills only true holes —
//     and k-way merges backfill and holdback back into one
//     time-ordered flow (internal/merge).
//
// Repairs are time-driven, not elem-driven: a poll ticker drains gap
// reports and re-checks splice readiness against the source's
// core.FeedClock (rislive ping watermarks), so a quiet feed repairs
// its holes without waiting for the next elem to happen along.
//
// With Options.CursorPath set, the repairer persists a small cursor —
// the delivered watermark plus every unrepaired window — and on
// restart re-queues the persisted windows and bridges the downtime
// itself as a "restart" gap from the persisted watermark to the first
// feed signal of the new process. Completeness thereby survives
// process restarts, in the spirit of Isolario's durable per-session
// feeds.
//
// Repairer implements core.ElemSource, so a repaired feed drops into
// core.NewLiveStream — and therefore into every Open / Records / Elems
// consumer — unchanged. Composite packages the pattern as a
// core.Source wrapping any push+pull source pair; the facade registers
// it as the "repaired" source and exposes it through WithRepair.
// Counters (gaps seen, repairs, failed attempts, abandoned windows,
// backfilled elems, duplicates dropped, queued/in-flight gauges)
// surface through core.SourceStats / Stream.SourceStats and
// `bgpreader -v`.
package gaprepair

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/merge"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// Options tunes a Repairer. The zero value picks sensible defaults.
type Options struct {
	// HoldbackLimit bounds the live elems buffered while a gap window
	// closes (default 8192). On overflow, intake pauses until the
	// earliest window's fetch resolves (the one stall the pipeline
	// accepts, to keep memory bounded), then the covered part of the
	// window is spliced and the uncovered remainder re-queued. Size it
	// above feed-rate × worst-case fetch latency to keep the pump
	// stall-free.
	HoldbackLimit int
	// Timeout bounds each backfill fetch attempt (default 30s): the
	// retry policy's AttemptTimeout.
	Timeout time.Duration
	// RecentWindow sizes the ring of recently delivered elems used to
	// deduplicate the leading edge of a backfill window (default
	// 4096). It should exceed the number of elems the feed delivers
	// between the completeness watermark and a gap opening.
	RecentWindow int
	// Concurrency bounds the backfill fetches in flight at once
	// (default 2). Fetches run in worker goroutines, so the live pump
	// keeps draining regardless.
	Concurrency int
	// RetryMax bounds fetch attempts per window (default 3): the retry
	// policy's MaxAttempts. A window still failing after that is
	// abandoned — counted in SourceStats.RepairsAbandoned — and its
	// hole stays.
	RetryMax int
	// RetryBackoff is the delay before the second attempt (default
	// 500ms): the retry policy's Backoff, jittered, doubled per further
	// retry up to resilience.DefaultMaxBackoff, and floored by any
	// Retry-After hint.
	RetryBackoff time.Duration
	// PollInterval is the cadence of time-driven repair checks:
	// draining gap reports and re-checking splice readiness against
	// the source's feed clock even when no elem arrives (default 1s).
	PollInterval time.Duration
	// CursorPath, when non-empty, persists the repair cursor (the
	// delivered watermark plus unrepaired windows) to this file, and
	// restores it on start so repairs survive process restarts.
	CursorPath string
	// Logf, when set, receives repair lifecycle logs.
	Logf func(format string, args ...any)
}

func (o Options) holdbackLimit() int {
	if o.HoldbackLimit > 0 {
		return o.HoldbackLimit
	}
	return 8192
}

func (o Options) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 30 * time.Second
}

func (o Options) recentWindow() int {
	if o.RecentWindow > 0 {
		return o.RecentWindow
	}
	return 4096
}

func (o Options) concurrency() int {
	if o.Concurrency > 0 {
		return o.Concurrency
	}
	return 2
}

func (o Options) retryMax() int {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 3
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff > 0 {
		return o.RetryBackoff
	}
	return 500 * time.Millisecond
}

func (o Options) pollInterval() time.Duration {
	if o.PollInterval > 0 {
		return o.PollInterval
	}
	return time.Second
}

// pair is one (record, elem) unit of the elem flow.
type pair struct {
	rec  *core.Record
	elem *core.Elem
}

// elemKey identifies an elem for window-boundary deduplication:
// feed tags plus every elem field, at the fidelity the rislive codec
// preserves (microsecond timestamps, textual AS paths with AS_SET
// structure). Comparable, so multisets are plain maps.
type elemKey struct {
	project, collector string
	typ                core.ElemType
	tsMicro            int64
	peer               netip.Addr
	peerASN            uint32
	prefix             netip.Prefix
	nextHop            netip.Addr
	path               string
	comms              string
	oldState, newState uint8
}

func keyOf(p pair) elemKey {
	e := p.elem
	k := elemKey{
		project:   p.rec.Project,
		collector: p.rec.Collector,
		typ:       e.Type,
		tsMicro:   e.Timestamp.UnixMicro(),
		peer:      e.PeerAddr,
		peerASN:   e.PeerASN,
		prefix:    e.Prefix,
		nextHop:   e.NextHop,
		path:      e.ASPath.String(),
		oldState:  uint8(e.OldState),
		newState:  uint8(e.NewState),
	}
	if len(e.Communities) > 0 {
		var b strings.Builder
		for _, c := range e.Communities {
			fmt.Fprintf(&b, "%d:%d,", c.ASN(), c.Value())
		}
		k.comms = b.String()
	}
	return k
}

type recentEntry struct {
	p  pair
	ts time.Time
	// key is computed lazily on first dedup use: the ring is written
	// once per delivered elem (hot path), but keys are only consulted
	// for entries that fall inside a gap window.
	key *elemKey
}

func (e *recentEntry) elemKey() elemKey {
	if e.key == nil {
		k := keyOf(e.p)
		e.key = &k
	}
	return *e.key
}

// normalizePair re-materialises a live pair as its own single-elem
// record when the source shares one record across consecutive elems.
// The downstream push-mode stream enumerates records, not pairs —
// splicing backfill between two pairs that share a record would
// otherwise make it enumerate that record twice. Single-elem pairs
// (the rislive codec's native shape, and fetch's output) pass through
// untouched.
func normalizePair(p pair) pair {
	if es, err := p.rec.Elems(); err == nil && len(es) == 1 && &es[0] == p.elem {
		return p
	}
	nr := core.NewElemRecord(p.rec.Project, p.rec.Collector, p.rec.DumpType, p.elem.Timestamp, []core.Elem{*p.elem})
	ne, _ := nr.Elems()
	return pair{rec: nr, elem: &ne[0]}
}

// winState is the lifecycle of one loss window in the pipeline.
type winState int

const (
	winQueued    winState = iota // waiting for a backfill worker
	winInFlight                  // a worker is fetching it
	winDone                      // fetched; items hold the backfill
	winAbandoned                 // retry budget exhausted; stays holey
)

// window is one outstanding loss window. The coordinator owns state
// and items; workers read only gap (immutable after creation, with
// channel sends ordering the accesses).
type window struct {
	gap   core.Gap
	state winState
	items []pair
	// ftSeen/ftReady debounce the feed-clock splice trigger: the clock
	// can run ahead of elems still in transit through the pump, so a
	// window only counts as feed-time-passed after two consecutive
	// poll ticks observed the clock beyond it — one full poll interval
	// for in-flight elems to drain into the holdback.
	ftSeen  bool
	ftReady bool
}

// fetchResult is a worker's final verdict on one window.
type fetchResult struct {
	win      *window
	items    []pair
	err      error
	attempts int // fetch attempts made, the failing one included
}

// Repairer wraps a lossy push source and emits a complete, time-ordered
// elem flow: live elems pass through; whenever the source reports a
// loss window, the window is backfilled from the archive source and
// spliced in, deduplicated against what the live side already
// delivered. It implements core.ElemSource (and core.StatsReporter),
// so it slots into core.NewLiveStream like any other push source.
//
// Construct with New; fields are not safe to mutate after the first
// NextElem call.
type Repairer struct {
	live     core.ElemSource
	reporter core.GapReporter // nil when the live source reports no gaps
	clock    core.FeedClock   // nil when the live source has no feed clock
	backfill Backfiller
	opts     Options
	cur      *cursor // nil when persistence is off

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{} // closed when the coordinator has exited
	cancel    context.CancelFunc
	out       chan pair
	feed      chan pair        // pump → coordinator
	jobs      chan *window     // coordinator → workers
	results   chan fetchResult // workers → coordinator

	mu       sync.Mutex
	terminal error

	liveElems  atomic.Uint64
	gapsTaken  atomic.Uint64
	repairs    atomic.Uint64
	failures   atomic.Uint64
	abandoned  atomic.Uint64
	backfilled atomic.Uint64
	duplicates atomic.Uint64
	overflows  atomic.Uint64
	queued     atomic.Uint64
	inflight   atomic.Uint64
	holdLen    atomic.Uint64 // last holdback length published to the global gauge
}

// New builds a repairer over a live push source and a backfill
// channel. If live implements core.GapReporter its windows drive the
// repairs; otherwise the repairer is a transparent passthrough (it
// still normalises and counts the flow). If live implements
// core.FeedClock, repairs complete on feed-time advance alone, so a
// quiet feed still heals.
func New(live core.ElemSource, backfill Backfiller, opts Options) *Repairer {
	r := &Repairer{live: live, backfill: backfill, opts: opts}
	r.reporter, _ = live.(core.GapReporter)
	r.clock, _ = live.(core.FeedClock)
	if opts.CursorPath != "" {
		r.cur = &cursor{path: opts.CursorPath}
	}
	return r
}

// NextElem implements core.ElemSource: it yields the spliced flow in
// time order, blocking until the next elem, ctx cancellation, or
// source close (io.EOF). The first call starts the pipeline.
func (r *Repairer) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	r.startOnce.Do(r.start)
	select {
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case p, ok := <-r.out:
		if !ok {
			r.mu.Lock()
			err := r.terminal
			r.mu.Unlock()
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, io.EOF
		}
		return p.rec, p.elem, nil
	}
}

// Close stops the repairer and the underlying live source; blocked
// NextElem calls return io.EOF. With a cursor configured, the current
// watermark and any unrepaired windows are persisted first, so the
// next process picks the repairs back up. Safe to call multiple times.
func (r *Repairer) Close() error {
	r.startOnce.Do(r.start) // ensure the pipeline exists so out gets closed
	var err error
	r.stopOnce.Do(func() {
		close(r.stop)
		r.cancel()
		err = r.live.Close()
		// Wait for the coordinator: when Close returns, the cursor is
		// on disk and no pipeline goroutine touches shared state.
		<-r.done
	})
	return err
}

// SourceStats implements core.StatsReporter, layering the repair
// counters over the live source's own transport counters.
func (r *Repairer) SourceStats() core.SourceStats {
	var s core.SourceStats
	if sr, ok := r.live.(core.StatsReporter); ok {
		s = sr.SourceStats()
	} else {
		s.LiveElems = r.liveElems.Load()
		s.Gaps = r.gapsTaken.Load()
	}
	s.Repairs = r.repairs.Load()
	s.RepairFailures = r.failures.Load()
	s.RepairsAbandoned = r.abandoned.Load()
	s.RepairsQueued = r.queued.Load()
	s.RepairsInFlight = r.inflight.Load()
	s.BackfilledElems = r.backfilled.Load()
	s.DuplicatesDropped = r.duplicates.Load()
	s.HoldbackOverflows = r.overflows.Load()
	return s
}

func (r *Repairer) start() {
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	// With a cursor, out is unbuffered on purpose: the watermark
	// advances when a deliver completes, and with a buffer that would
	// count elems the consumer never received — a restart would then
	// clip its repair windows past elems lost in the buffer at
	// shutdown. Unbuffered, a completed send means NextElem has handed
	// the elem out. Without persistence there is no watermark to
	// protect, so keep the throughput buffer.
	if r.cur != nil {
		r.out = make(chan pair)
	} else {
		r.out = make(chan pair, 64)
	}
	r.feed = make(chan pair, 64)
	conc := r.opts.concurrency()
	r.jobs = make(chan *window, conc)
	r.results = make(chan fetchResult, conc)
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for i := 0; i < conc; i++ {
		go r.worker(ctx)
	}
	go r.pump(ctx)
	go r.coordinate()
}

// pump is the intake stage: it drains the live source into the
// pipeline unconditionally, so backfill latency never translates into
// upstream buffer overflows. It blocks only on the coordinator's
// bounded intake (and, transitively, the bounded holdback).
func (r *Repairer) pump(ctx context.Context) {
	defer close(r.feed)
	for {
		rec, elem, err := r.live.NextElem(ctx)
		if err != nil {
			r.fail(err)
			return
		}
		r.liveElems.Add(1)
		p := normalizePair(pair{rec, elem})
		select {
		case r.feed <- p:
		case <-r.stop:
			return
		}
	}
}

// worker is the backfill stage: it fetches one window at a time,
// reporting the final verdict to the coordinator.
func (r *Repairer) worker(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case w := <-r.jobs:
			res := r.fetchWithRetries(ctx, w)
			select {
			case r.results <- res:
			case <-ctx.Done():
				return
			}
		}
	}
}

// fetchWithRetries fetches one window under the resilience retry
// policy: transient failures are retried with jittered exponential
// backoff floored by any Retry-After hint, and a permanent one (a
// 404/410 archive hole) abandons the window after that attempt
// instead of burning the whole budget. Every failed attempt counts in
// RepairFailures.
func (r *Repairer) fetchWithRetries(ctx context.Context, w *window) fetchResult {
	res := fetchResult{win: w}
	max := r.opts.retryMax()
	pol := resilience.Policy{
		MaxAttempts:    max,
		Backoff:        r.opts.retryBackoff(),
		AttemptTimeout: r.opts.timeout(),
		OnRetry: func(err error) {
			r.failures.Add(1)
			metFailures.Inc()
			r.logf("gaprepair: backfill of %s failed (attempt %d/%d): %v", w.gap, res.attempts, max, err)
		},
	}
	res.err = pol.Do(ctx, "backfill", func(actx context.Context) error {
		res.attempts++
		start := time.Now()
		items, err := r.fetch(actx, w.gap)
		if err == nil {
			metBackfillLatency.Observe(time.Since(start).Seconds())
			res.items = items
		}
		return err
	})
	if res.err != nil && ctx.Err() != nil {
		// Shutting down, not a backfill failure: surface the
		// cancellation itself — Do returns the last attempt's error
		// when cancelled mid-backoff — so the coordinator re-queues the
		// window (and the cursor keeps it) instead of abandoning.
		res.err = ctx.Err()
	} else if res.err != nil {
		r.failures.Add(1)
		metFailures.Inc()
	}
	return res
}

// fetch drains one backfill window into normalised single-elem pairs.
func (r *Repairer) fetch(ctx context.Context, w core.Gap) ([]pair, error) {
	st, err := r.backfill.Backfill(ctx, w.From, w.Until)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var items []pair
	for {
		rec, elem, err := st.NextElem()
		if errors.Is(err, io.EOF) {
			r.logf("gaprepair: backfilled %d elems for %s", len(items), w)
			return items, nil
		}
		if err != nil {
			return nil, err
		}
		if elem.Timestamp.Before(w.From) || elem.Timestamp.After(w.Until) {
			continue
		}
		// Re-materialise as a single-elem record, the same shape the
		// push codec produces, so the downstream stream treats spliced
		// and live elems identically.
		nr := core.NewElemRecord(rec.Project, rec.Collector, rec.DumpType, elem.Timestamp, []core.Elem{*elem})
		ne, _ := nr.Elems()
		items = append(items, pair{rec: nr, elem: &ne[0]})
	}
}

func (r *Repairer) fail(err error) {
	if errors.Is(err, io.EOF) {
		return
	}
	select {
	case <-r.stop:
		return // closing: surface io.EOF, not the cancellation
	default:
	}
	r.mu.Lock()
	r.terminal = err
	r.mu.Unlock()
}

// takeReported drains the loss windows the live source reports.
func (r *Repairer) takeReported() []core.Gap {
	if r.reporter == nil {
		return nil
	}
	fresh := r.reporter.TakeGaps()
	r.gapsTaken.Add(uint64(len(fresh)))
	metGaps.Add(uint64(len(fresh)))
	return fresh
}

// feedTime reads the live source's feed clock, or zero without one.
func (r *Repairer) feedTime() time.Time {
	if r.clock == nil {
		return time.Time{}
	}
	return r.clock.FeedTime()
}

func (r *Repairer) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// coordinator is the splice stage's state, owned by one goroutine.
type coordinator struct {
	r *Repairer

	windows  []*window // outstanding, sorted by From, pairwise disjoint
	hold     []pair    // live elems held behind the earliest window
	feed     chan pair // nilled once the pump ends
	liveEdge time.Time // newest live timestamp received
	nfly     int       // fetches dispatched and not yet resolved
	stopping bool

	// restartMark is the persisted watermark awaiting its first feed
	// signal, which turns the process downtime into a "restart" gap.
	restartMark time.Time
	edge        time.Time // delivered watermark (cursor)
	dirty       bool      // cursor state changed since last persist

	// Ring of recently delivered elems for backfill dedup.
	recent    []recentEntry
	recentPos int

	// spliced is a bounded multiset of recently spliced backfill
	// elems: a live copy arriving after its window was spliced (a
	// feed-clock race, or an elem in flight across a splice) is
	// suppressed against it, so splice timing can never double an
	// elem.
	spliced     map[elemKey]int
	splicedFifo []elemKey
	splicedPos  int
}

// coordinate runs the splice stage until the feed drains, the
// repairer is closed, or the live source dies.
func (r *Repairer) coordinate() {
	defer close(r.done)
	defer close(r.out)
	co := &coordinator{r: r, feed: r.feed, spliced: map[elemKey]int{}}
	defer co.retractGauges()
	if r.cur != nil {
		st, err := r.cur.load()
		if err != nil {
			r.logf("gaprepair: cursor %s unreadable (starting fresh): %v", r.cur.path, err)
		}
		co.restartMark = st.Watermark
		co.edge = st.Watermark
		if gaps := st.gaps(); len(gaps) > 0 {
			// Clip to strictly after the watermark: delivery was
			// complete through it, and the recent ring that would
			// deduplicate boundary copies did not survive the restart.
			if !st.Watermark.IsZero() {
				clip := st.Watermark.Add(time.Microsecond)
				kept := gaps[:0]
				for _, g := range gaps {
					if g.From.Before(clip) {
						g.From = clip
					}
					if !g.Until.Before(g.From) {
						kept = append(kept, g)
					}
				}
				gaps = kept
			}
			r.logf("gaprepair: resuming %d unrepaired windows from cursor", len(gaps))
			co.integrate(gaps)
		}
	}
	poll := time.NewTicker(r.opts.pollInterval())
	defer poll.Stop()
	for {
		co.dispatch()
		co.splice()
		if co.stopping {
			co.persist()
			return
		}
		if co.feed == nil && len(co.windows) == 0 && len(co.hold) == 0 {
			co.persist()
			return
		}
		feedCh := co.feed
		if len(co.hold) >= r.opts.holdbackLimit() && len(co.windows) > 0 {
			// Holdback full: stop intake, backpressuring the pump,
			// until the earliest window's fetch resolves and the
			// overflow splice above frees space. This is the one
			// deliberate pump stall — the bounded-memory escape valve
			// — and it only triggers when HoldbackLimit is undersized
			// for feed-rate × fetch latency.
			feedCh = nil
		}
		select {
		case p, ok := <-feedCh:
			if !ok {
				co.feed = nil
				co.integrate(r.takeReported()) // final drain
				continue
			}
			co.onPair(p)
		case res := <-r.results:
			co.onResult(res)
		case <-poll.C:
			co.onPoll()
		case <-r.stop:
			co.persist()
			return
		}
	}
}

// onPair handles one live elem: gaps first (the reporter guarantees a
// window is visible before the elem that closes it), then deliver or
// hold.
func (co *coordinator) onPair(p pair) {
	r := co.r
	co.noteFeedTime(p.elem.Timestamp)
	co.integrate(r.takeReported())
	if len(co.spliced) > 0 {
		if k := keyOf(p); co.spliced[k] > 0 {
			// The splice already emitted this elem's backfill copy;
			// the late live copy would be a duplicate.
			co.spliced[k]--
			r.duplicates.Add(1)
			metDuplicates.Inc()
			return
		}
	}
	co.liveEdge = core.MaxTime(co.liveEdge, p.elem.Timestamp)
	if len(co.windows) == 0 {
		co.deliver(p)
		return
	}
	co.hold = append(co.hold, p)
	co.gauges()
}

// onResult records a worker's verdict on one window.
func (co *coordinator) onResult(res fetchResult) {
	co.nfly--
	w := res.win
	switch {
	case errors.Is(res.err, context.Canceled):
		// The pipeline is shutting down mid-fetch; that is not retry
		// exhaustion. Back to queued so the cursor persists the
		// window and the next process repairs it.
		w.state = winQueued
	case res.err != nil:
		w.state = winAbandoned
		co.r.abandoned.Add(1)
		metAbandoned.Inc()
		co.r.logf("gaprepair: abandoning %s after %d attempts: %v", w.gap, res.attempts, res.err)
	default:
		w.state = winDone
		w.items = res.items
	}
	co.gauges()
	co.dirty = true
}

// onPoll is the time-driven trigger: drain gap reports and advance the
// restart bridge even when no elem arrives, and flush the cursor if
// the watermark moved.
func (co *coordinator) onPoll() {
	if ft := co.r.feedTime(); !ft.IsZero() {
		co.noteFeedTime(ft)
		// At-or-beyond, not strictly beyond: a gap closed by a ping
		// watermark has Until exactly equal to the feed clock, and on
		// a feed that then stays quiet the clock never advances — a
		// strict comparison would hold the fetched backfill forever.
		// Arm only while the intake is drained: elems still queued
		// between pump and coordinator may belong inside the window,
		// and the two-tick debounce (plus the spliced-duplicate
		// guard) covers what the emptiness check cannot see.
		if len(co.r.feed) == 0 {
			for _, w := range co.windows {
				if !w.ftReady && !ft.Before(w.gap.Until) {
					if w.ftSeen {
						w.ftReady = true
					} else {
						w.ftSeen = true
					}
				}
			}
		}
	}
	co.integrate(co.r.takeReported())
	if co.dirty {
		co.persist()
	}
}

// noteFeedTime consumes the persisted watermark on the first feed
// signal after a restart, bridging the downtime as an ordinary
// repairable gap.
func (co *coordinator) noteFeedTime(ts time.Time) {
	if co.restartMark.IsZero() || ts.IsZero() {
		return
	}
	mark := co.restartMark
	co.restartMark = time.Time{}
	if !ts.After(mark) {
		return // feed restarted at or before the watermark: nothing missed
	}
	// Strictly after the watermark: elems at the watermark timestamp
	// were delivered by the previous process.
	g := core.Gap{From: mark.Add(time.Microsecond), Until: ts, Reason: "restart"}
	if g.Until.Before(g.From) {
		return
	}
	co.r.logf("gaprepair: restart: repairing downtime %s", g)
	co.integrate([]core.Gap{g})
}

// integrate folds new loss windows into the outstanding set, keeping
// it sorted and pairwise disjoint. Windows already being fetched (or
// fetched) keep their bounds; only the uncovered remainder of a new
// gap forms fresh queued windows.
func (co *coordinator) integrate(gaps []core.Gap) {
	if len(gaps) == 0 {
		return
	}
	var plain []core.Gap
	busy := co.windows[:0:0]
	for _, w := range co.windows {
		if w.state == winQueued {
			plain = append(plain, w.gap)
		} else {
			busy = append(busy, w)
		}
	}
	plain = coalesce(plain, gaps)
	for _, b := range busy {
		plain = subtractWindow(plain, b.gap)
	}
	ws := busy
	for _, g := range plain {
		ws = append(ws, &window{gap: g})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].gap.From.Before(ws[j].gap.From) })
	co.windows = ws
	co.gauges()
	co.dirty = true
}

// dispatch hands queued windows to idle workers, earliest first,
// bounded by the configured concurrency.
func (co *coordinator) dispatch() {
	r := co.r
	for co.nfly < r.opts.concurrency() {
		var next *window
		for _, w := range co.windows {
			if w.state == winQueued {
				next = w
				break
			}
		}
		if next == nil {
			return
		}
		next.state = winInFlight
		co.nfly++
		r.jobs <- next // cap == concurrency, nfly < concurrency: never blocks
		co.gauges()
	}
}

// drainSafe delivers the holdback prefix that precedes every
// outstanding window: those elems cannot interleave with any backfill
// still to come, so holding them would only add latency and memory
// pressure.
func (co *coordinator) drainSafe() {
	if co.stopping || len(co.windows) == 0 {
		return
	}
	gate := co.windows[0].gap.From
	for len(co.hold) > 0 && !co.hold[0].elem.Timestamp.After(gate) {
		if !co.deliver(co.hold[0]) {
			return
		}
		co.hold = co.hold[1:]
	}
}

// splice resolves as many leading windows as are ready: the earliest
// outstanding window, once fetched (or abandoned), is merged with the
// holdback up to the next window and delivered in time order. A full
// holdback forces the covered part through and re-queues the rest.
func (co *coordinator) splice() {
	r := co.r
	for len(co.windows) > 0 && !co.stopping {
		co.drainSafe()
		w := co.windows[0]
		if w.state != winDone && w.state != winAbandoned {
			return
		}
		full := len(co.hold) >= r.opts.holdbackLimit()
		// The window has passed when an elem beyond it reached the
		// coordinator, the feed ended, or the feed clock sat beyond it
		// for two poll ticks (the quiet-feed path; see window.ftReady).
		passed := co.liveEdge.After(w.gap.Until) || co.feed == nil || w.ftReady
		if !passed && !full {
			return
		}
		items := w.items
		var requeue []core.Gap
		if !passed {
			// Forced by holdback overflow: splice strictly before the
			// holdback horizon — elems at the horizon timestamp itself
			// may still be in flight — and re-queue the uncovered
			// remainder as a fresh gap. drainSafe above guarantees the
			// horizon lies inside the window. An abandoned window gets
			// no requeue: its retry budget is spent and resurrecting
			// it here would retry the same range forever.
			r.overflows.Add(1)
			metOverflows.Inc()
			horizon := co.hold[len(co.hold)-1].elem.Timestamp
			if w.state == winDone {
				requeue = append(requeue, core.Gap{From: horizon, Until: w.gap.Until, Reason: w.gap.Reason})
			}
			w.gap.Until = horizon.Add(-time.Microsecond) // closed interval: exclude the horizon
			kept := items[:0:0]
			for _, it := range items {
				if !it.elem.Timestamp.After(w.gap.Until) {
					kept = append(kept, it)
				}
			}
			items = kept
		}
		// Dedup multiset: a backfill elem is suppressed once per
		// matching live delivery inside the window — copies already
		// delivered (the recent ring) or held back for delivery (the
		// holdback). Live copies win; backfill fills only true holes.
		seen := make(map[elemKey]int)
		for i := range co.recent {
			if e := &co.recent[i]; inWindow(w.gap, e.ts) {
				seen[e.elemKey()]++
			}
		}
		for _, p := range co.hold {
			if inWindow(w.gap, p.elem.Timestamp) {
				seen[keyOf(p)]++
			}
		}
		kept := items[:0:0]
		for _, it := range items {
			k := keyOf(it)
			if seen[k] > 0 {
				seen[k]--
				r.duplicates.Add(1)
				metDuplicates.Inc()
				continue
			}
			kept = append(kept, it)
		}
		if w.state == winDone {
			r.repairs.Add(1)
			metRepairs.Inc()
			r.backfilled.Add(uint64(len(kept)))
			metBackfilled.Add(uint64(len(kept)))
			co.recordSpliced(kept)
		}
		co.windows = co.windows[1:]
		co.integrate(requeue)
		// The holdback prefix up to the next outstanding window (all
		// of it when none remains) merges with the backfill: windows
		// are disjoint and ordered, so nothing still to be fetched can
		// interleave below that gate. Ties keep source order —
		// equal-timestamp backfill precedes the live elems that closed
		// the window.
		n := len(co.hold)
		if len(co.windows) > 0 {
			gate := co.windows[0].gap.From
			n = 0
			for n < len(co.hold) && !co.hold[n].elem.Timestamp.After(gate) {
				n++
			}
		}
		prefix := co.hold[:n]
		m := merge.NewMerger(func(a, b pair) bool {
			return a.elem.Timestamp.Before(b.elem.Timestamp)
		}, &merge.SliceSource[pair]{Items: kept}, &merge.SliceSource[pair]{Items: prefix})
		for {
			p, err := m.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil { // unreachable: slice sources never fail
				r.fail(err)
				co.stopping = true
				return
			}
			if !co.deliver(p) {
				return
			}
		}
		co.hold = co.hold[n:]
		co.gauges()
		co.persist()
	}
	if len(co.windows) == 0 && len(co.hold) > 0 && !co.stopping {
		// Defensive: with no window outstanding nothing gates the
		// holdback.
		for _, p := range co.hold {
			if !co.deliver(p) {
				return
			}
		}
		co.hold = nil
	}
}

// deliver emits one pair, recording it in the recent ring for later
// deduplication. Returns false when the repairer is closing.
func (co *coordinator) deliver(p pair) bool {
	r := co.r
	co.remember(p)
	select {
	case r.out <- p:
		co.edge = core.MaxTime(co.edge, p.elem.Timestamp)
		co.dirty = true
		return true
	case <-r.stop:
		co.stopping = true
		return false
	}
}

func (co *coordinator) remember(p pair) {
	n := co.r.opts.recentWindow()
	e := recentEntry{p: p, ts: p.elem.Timestamp}
	if len(co.recent) < n {
		co.recent = append(co.recent, e)
		return
	}
	co.recent[co.recentPos] = e
	co.recentPos = (co.recentPos + 1) % n
}

// recordSpliced adds spliced backfill elems to the bounded
// late-duplicate multiset (see coordinator.spliced).
func (co *coordinator) recordSpliced(ps []pair) {
	limit := co.r.opts.recentWindow()
	for _, p := range ps {
		k := keyOf(p)
		co.spliced[k]++
		if len(co.splicedFifo) < limit {
			co.splicedFifo = append(co.splicedFifo, k)
			continue
		}
		old := co.splicedFifo[co.splicedPos]
		if co.spliced[old] > 1 {
			co.spliced[old]--
		} else {
			delete(co.spliced, old)
		}
		co.splicedFifo[co.splicedPos] = k
		co.splicedPos = (co.splicedPos + 1) % limit
	}
}

// gauges refreshes the queued/in-flight/holdback gauges: the instance
// atomics hold the values SourceStats reports, and the global gauges
// absorb the delta from each repairer's previous publication, so
// concurrent repairers sum instead of clobbering each other.
func (co *coordinator) gauges() {
	var q, f uint64
	for _, w := range co.windows {
		switch w.state {
		case winQueued:
			q++
		case winInFlight:
			f++
		}
	}
	metQueued.Add(int64(q) - int64(co.r.queued.Swap(q)))
	metInflight.Add(int64(f) - int64(co.r.inflight.Swap(f)))
	h := uint64(len(co.hold))
	metHoldback.Add(int64(h) - int64(co.r.holdLen.Swap(h)))
}

// retractGauges zeroes this repairer's contribution to the global
// gauges when its coordinator exits, so closed repairers leave no
// residue in the exposition.
func (co *coordinator) retractGauges() {
	metQueued.Add(-int64(co.r.queued.Swap(0)))
	metInflight.Add(-int64(co.r.inflight.Swap(0)))
	metHoldback.Add(-int64(co.r.holdLen.Swap(0)))
}

// persist writes the repair cursor: the completeness watermark plus
// every window not yet spliced (abandoned windows stay dropped —
// persisting them would retry them forever across restarts).
//
// The watermark is NOT simply the delivery edge: a drops window opens
// at the source's lagging stable point, below elems already delivered
// — its missing elems interleave with delivered ones. Completeness
// only holds up to the earliest outstanding window, so the persisted
// watermark is min(delivered edge, earliest window From). The restore
// clip (strictly after the watermark) then never amputates a window.
// The cost is the mirror image: elems delivered between that
// watermark and the edge may be re-delivered after a restart (the
// dedup ring does not survive); across restarts, completeness wins
// over exactness.
func (co *coordinator) persist() {
	r := co.r
	if r.cur == nil {
		return
	}
	st := cursorState{Watermark: co.edge}
	if !co.restartMark.IsZero() && co.restartMark.After(st.Watermark) {
		st.Watermark = co.restartMark // no feed signal yet: keep the old mark
	}
	for _, w := range co.windows {
		if w.state == winAbandoned {
			continue
		}
		if w.gap.From.Before(st.Watermark) {
			st.Watermark = w.gap.From
		}
		st.Windows = append(st.Windows, cursorWindow{From: w.gap.From, Until: w.gap.Until, Reason: w.gap.Reason})
	}
	if err := r.cur.save(st); err != nil {
		r.logf("gaprepair: cursor %s not written: %v", r.cur.path, err)
		return
	}
	co.dirty = false
}

// coalesce folds more windows into ws, merging overlapping or touching
// intervals; the result is sorted by From and pairwise disjoint.
func coalesce(ws []core.Gap, more []core.Gap) []core.Gap {
	ws = append(ws, more...)
	if len(ws) < 2 {
		return ws
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].From.Before(ws[j].From) })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if !w.From.After(last.Until) { // overlaps or touches
			if w.Until.After(last.Until) {
				last.Until = w.Until
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// subtractWindow removes the (closed) interval of g from every gap in
// ws, keeping the disjoint leftovers at µs resolution.
func subtractWindow(ws []core.Gap, g core.Gap) []core.Gap {
	out := ws[:0:0]
	for _, w := range ws {
		if w.Until.Before(g.From) || w.From.After(g.Until) {
			out = append(out, w)
			continue
		}
		if w.From.Before(g.From) {
			left := core.Gap{From: w.From, Until: g.From.Add(-time.Microsecond), Reason: w.Reason}
			if !left.Until.Before(left.From) {
				out = append(out, left)
			}
		}
		if w.Until.After(g.Until) {
			right := core.Gap{From: g.Until.Add(time.Microsecond), Until: w.Until, Reason: w.Reason}
			if !right.Until.Before(right.From) {
				out = append(out, right)
			}
		}
	}
	return out
}

// inWindow reports whether ts falls in the (closed) window.
func inWindow(w core.Gap, ts time.Time) bool {
	return !ts.Before(w.From) && !ts.After(w.Until)
}
