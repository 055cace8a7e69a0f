package gaprepair

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

var t0 = time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)

// mkPair builds a distinct single-elem pair at t0+sec, distinguished
// by peer ASN so equal-timestamp elems have different identities.
func mkPair(sec int, asn uint32) pair {
	e := core.Elem{
		Type:      core.ElemAnnouncement,
		Timestamp: t0.Add(time.Duration(sec) * time.Second),
		PeerAddr:  netip.MustParseAddr("192.0.2.1"),
		PeerASN:   asn,
		Prefix:    netip.MustParsePrefix("203.0.113.0/24"),
	}
	rec := core.NewElemRecord("ris", "rrc00", core.DumpUpdates, e.Timestamp, []core.Elem{e})
	elems, _ := rec.Elems()
	return pair{rec: rec, elem: &elems[0]}
}

func gapAt(fromSec, untilSec int) core.Gap {
	return core.Gap{
		From:   t0.Add(time.Duration(fromSec) * time.Second),
		Until:  t0.Add(time.Duration(untilSec) * time.Second),
		Reason: "reconnect",
	}
}

// fakeLive scripts an elem flow with embedded gap reports, honouring
// the GapReporter ordering contract (a gap is visible before the elem
// that follows it in the script is delivered).
type fakeLive struct {
	events []any // pair or core.Gap
	i      int   // pump-goroutine-local

	mu   sync.Mutex
	gaps []core.Gap
}

func (f *fakeLive) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	for f.i < len(f.events) {
		ev := f.events[f.i]
		f.i++
		switch v := ev.(type) {
		case core.Gap:
			f.mu.Lock()
			f.gaps = append(f.gaps, v)
			f.mu.Unlock()
		case pair:
			return v.rec, v.elem, nil
		}
	}
	return nil, nil, io.EOF
}

func (f *fakeLive) TakeGaps() []core.Gap {
	f.mu.Lock()
	defer f.mu.Unlock()
	gaps := f.gaps
	f.gaps = nil
	return gaps
}

func (f *fakeLive) Close() error { return nil }

// fakeBackfill serves windows of a time-ordered elem universe.
// Fetches run on worker goroutines, so the counters are guarded.
type fakeBackfill struct {
	universe []pair
	fail     bool // every fetch fails
	// failFirst makes the first n fetches fail, then recovers.
	failFirst int
	// failErr overrides the error used by fail/failFirst, to model
	// classified failures (permanent 404s, Retry-After hints).
	failErr error

	mu    sync.Mutex
	calls int
}

func (b *fakeBackfill) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

type slicePairs struct {
	items []pair
	i     int
}

func (s *slicePairs) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	if s.i >= len(s.items) {
		return nil, nil, io.EOF
	}
	p := s.items[s.i]
	s.i++
	return p.rec, p.elem, nil
}

func (s *slicePairs) Close() error { return nil }

func (b *fakeBackfill) Backfill(ctx context.Context, from, until time.Time) (*core.Stream, error) {
	b.mu.Lock()
	b.calls++
	n := b.calls
	b.mu.Unlock()
	if b.fail || n <= b.failFirst {
		if b.failErr != nil {
			return nil, b.failErr
		}
		return nil, errors.New("backfill service down")
	}
	var sel []pair
	for _, p := range b.universe {
		if !p.elem.Timestamp.Before(from) && !p.elem.Timestamp.After(until) {
			sel = append(sel, p)
		}
	}
	return core.NewLiveStream(ctx, &slicePairs{items: sel}, core.Filters{}), nil
}

// drain reads the repairer to exhaustion, checking time order.
func drain(t *testing.T, r *Repairer) []pair {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out []pair
	for {
		rec, elem, err := r.NextElem(ctx)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("after %d elems: %v", len(out), err)
		}
		if n := len(out); n > 0 && elem.Timestamp.Before(out[n-1].elem.Timestamp) {
			t.Fatalf("time order violated at elem %d: %v after %v", n, elem.Timestamp, out[n-1].elem.Timestamp)
		}
		out = append(out, pair{rec, elem})
	}
}

func asns(ps []pair) []uint32 {
	out := make([]uint32, len(ps))
	for i, p := range ps {
		out[i] = p.elem.PeerASN
	}
	return out
}

func eqASNs(got []uint32, want ...uint32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestRepairSplicesGapWindow is the core scenario: the live flow loses
// seconds 3..5, reports the window, and the repairer splices them back
// from the archive — deduplicating the boundary elems the live side
// already delivered — in time order.
func TestRepairSplicesGapWindow(t *testing.T) {
	universe := make([]pair, 0, 10)
	for s := 0; s < 10; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &fakeLive{events: []any{
		universe[0], universe[1], universe[2],
		gapAt(2, 6), // seconds 3..5 lost; boundaries 2 and 6 delivered
		universe[6], universe[7],
	}}
	bf := &fakeBackfill{universe: universe}
	r := New(live, bf, Options{})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005, 65006, 65007) {
		t.Fatalf("spliced flow = %v", got)
	}
	st := r.SourceStats()
	if st.Gaps != 1 || st.Repairs != 1 || st.RepairFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BackfilledElems != 3 {
		t.Fatalf("backfilled = %d, want 3", st.BackfilledElems)
	}
	// Boundary copies 2 (recent ring) and 6 (holdback) were deduped.
	if st.DuplicatesDropped != 2 {
		t.Fatalf("duplicates dropped = %d, want 2", st.DuplicatesDropped)
	}
	if st.LiveElems != 5 {
		t.Fatalf("live elems = %d, want 5", st.LiveElems)
	}
	if bf.count() != 1 {
		t.Fatalf("backfill calls = %d, want 1", bf.count())
	}
}

// TestRepairDedupsEqualTimestampSiblings covers the in-flight sibling
// hazard: several elems share the window-closing timestamp, only the
// first closes the gap, and the rest must still dedup against their
// backfill copies (multiset semantics, not set semantics).
func TestRepairDedupsEqualTimestampSiblings(t *testing.T) {
	a, b, c := mkPair(6, 65100), mkPair(6, 65101), mkPair(6, 65101) // b and c identical
	universe := []pair{mkPair(2, 65000), mkPair(4, 65001), a, b, c}
	live := &fakeLive{events: []any{
		universe[0],
		gapAt(2, 6),
		a, b, c, // all three siblings delivered live, after the gap report
		mkPair(7, 65200),
	}}
	bf := &fakeBackfill{universe: universe}
	r := New(live, bf, Options{})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65100, 65101, 65101, 65200) {
		t.Fatalf("spliced flow = %v", got)
	}
	st := r.SourceStats()
	// Backfill window [2,6] = {2, 4, a, b, c}: 2 deduped against the
	// ring, a/b/c against the holdback; only second 4 spliced.
	if st.BackfilledElems != 1 || st.DuplicatesDropped != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRepairBackfillFailureDegradesGracefully keeps the live flow
// intact (original lossy behaviour) when the archive stays
// unreachable: the window is retried up to the bound, then abandoned.
func TestRepairBackfillFailureDegradesGracefully(t *testing.T) {
	live := &fakeLive{events: []any{
		mkPair(0, 65000), mkPair(1, 65001),
		gapAt(1, 5),
		mkPair(5, 65005), mkPair(6, 65006),
	}}
	bf := &fakeBackfill{fail: true}
	r := New(live, bf, Options{RetryMax: 2, RetryBackoff: time.Millisecond})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65005, 65006) {
		t.Fatalf("flow = %v", got)
	}
	st := r.SourceStats()
	if st.RepairFailures != 2 || st.RepairsAbandoned != 1 || st.Repairs != 0 || st.BackfilledElems != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if bf.count() != 2 {
		t.Fatalf("backfill calls = %d, want 2 (bounded retries)", bf.count())
	}
}

// TestRepairPermanentFailureAbandonsImmediately: a backfill error
// classified permanent (a 404 archive hole, say) is abandoned after a
// single attempt instead of burning the whole retry budget on a URL
// that will never heal.
func TestRepairPermanentFailureAbandonsImmediately(t *testing.T) {
	live := &fakeLive{events: []any{
		mkPair(0, 65000), mkPair(1, 65001),
		gapAt(1, 5),
		mkPair(5, 65005), mkPair(6, 65006),
	}}
	bf := &fakeBackfill{
		fail:    true,
		failErr: &resilience.HTTPError{URL: "http://archive/missing.gz", Status: 404},
	}
	var log logLines
	r := New(live, bf, Options{RetryMax: 5, RetryBackoff: time.Millisecond, Logf: log.logf})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65005, 65006) {
		t.Fatalf("flow = %v", got)
	}
	st := r.SourceStats()
	if st.RepairFailures != 1 || st.RepairsAbandoned != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if bf.count() != 1 {
		t.Fatalf("backfill calls = %d, want 1 (permanent error, no retries)", bf.count())
	}
	// The abandon log reports the attempts actually made, not the
	// retry budget.
	if logs := log.String(); !strings.Contains(logs, "abandoning "+gapAt(1, 5).String()+" after 1 attempts") {
		t.Fatalf("abandon log does not report 1 attempt:\n%s", logs)
	}
}

// logLines captures Options.Logf output; the repairer logs from its
// worker and coordinator goroutines.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// TestRepairHonorsRetryAfterHint: when the archive answers 429/503
// with Retry-After, the retry delay is floored by the hint even when
// the configured backoff is far smaller.
func TestRepairHonorsRetryAfterHint(t *testing.T) {
	universe := make([]pair, 0, 10)
	for s := 0; s < 10; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &fakeLive{events: []any{
		universe[0], universe[1],
		gapAt(1, 5),
		universe[5], universe[6],
	}}
	const hint = 300 * time.Millisecond
	bf := &fakeBackfill{
		universe:  universe,
		failFirst: 1,
		failErr:   &resilience.HTTPError{URL: "http://archive/busy", Status: 429, RetryAfter: hint},
	}
	r := New(live, bf, Options{RetryMax: 3, RetryBackoff: time.Millisecond})
	defer r.Close()

	start := time.Now()
	out := drain(t, r)
	elapsed := time.Since(start)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005, 65006) {
		t.Fatalf("flow = %v", got)
	}
	if st := r.SourceStats(); st.Repairs != 1 || st.RepairFailures != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// 1ms backoff alone would finish almost instantly; the hint forces
	// the second attempt to wait ~300ms.
	if elapsed < hint-50*time.Millisecond {
		t.Fatalf("retry ignored Retry-After hint: drained in %v, want >= ~%v", elapsed, hint)
	}
}

// TestRepairRetriesFailedWindow is the failed-window recovery path: a
// backfill that fails transiently is re-fetched with backoff until it
// succeeds, so the feed does not stay permanently holey after one bad
// fetch.
func TestRepairRetriesFailedWindow(t *testing.T) {
	universe := make([]pair, 0, 10)
	for s := 0; s < 10; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &fakeLive{events: []any{
		universe[0], universe[1],
		gapAt(1, 5),
		universe[5], universe[6],
	}}
	bf := &fakeBackfill{universe: universe, failFirst: 2}
	r := New(live, bf, Options{RetryMax: 3, RetryBackoff: time.Millisecond})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005, 65006) {
		t.Fatalf("flow = %v", got)
	}
	st := r.SourceStats()
	if st.RepairFailures != 2 || st.Repairs != 1 || st.RepairsAbandoned != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BackfilledElems != 3 { // seconds 2..4; boundaries 1 and 5 deduped
		t.Fatalf("backfilled = %d, want 3 (stats %+v)", st.BackfilledElems, st)
	}
	if bf.count() != 3 {
		t.Fatalf("backfill calls = %d, want 3 (2 failures + 1 success)", bf.count())
	}
}

// TestRepairMergesOverlappingWindows coalesces two overlapping gap
// reports into one backfill fetch.
func TestRepairMergesOverlappingWindows(t *testing.T) {
	universe := make([]pair, 0, 10)
	for s := 0; s < 10; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &fakeLive{events: []any{
		universe[0], universe[1],
		gapAt(1, 4),
		universe[4], // closes window 1; immediately lost again
		gapAt(4, 8),
		universe[8], universe[9],
	}}
	bf := &fakeBackfill{universe: universe}
	r := New(live, bf, Options{})
	defer r.Close()

	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005, 65006, 65007, 65008, 65009) {
		t.Fatalf("flow = %v", got)
	}
	st := r.SourceStats()
	if st.Gaps != 2 {
		t.Fatalf("gaps = %d, want 2", st.Gaps)
	}
	// Live delivered 0,1,4,8,9; the splice must contribute exactly the
	// five missing elems (2,3 and 5,6,7) and dedup the three delivered
	// ones the coalesced [1,8] window re-fetches (1, 4, 8).
	if st.BackfilledElems != 5 || st.DuplicatesDropped != 3 {
		t.Fatalf("backfilled = %d dup = %d, want 5/3 (stats %+v, %d fetches)",
			st.BackfilledElems, st.DuplicatesDropped, st, bf.count())
	}
}

// TestRepairPassthroughWithoutReporter leaves non-reporting sources
// untouched.
func TestRepairPassthroughWithoutReporter(t *testing.T) {
	items := []pair{mkPair(0, 65000), mkPair(1, 65001)}
	r := New(&slicePairs{items: items}, &fakeBackfill{}, Options{})
	defer r.Close()
	out := drain(t, r)
	if got := asns(out); !eqASNs(got, 65000, 65001) {
		t.Fatalf("flow = %v", got)
	}
	if st := r.SourceStats(); st.Gaps != 0 || st.LiveElems != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRepairerCloseUnblocks releases a blocked NextElem with io.EOF.
func TestRepairerCloseUnblocks(t *testing.T) {
	blocked := core.ElemSource(blockingSource{})
	r := New(blocked, &fakeBackfill{}, Options{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := r.NextElem(context.Background())
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	r.Close()
	select {
	case err := <-errc:
		if err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NextElem did not unblock after Close")
	}
}

type blockingSource struct{}

func (blockingSource) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	<-ctx.Done()
	return nil, nil, ctx.Err()
}

func (blockingSource) Close() error { return nil }

// TestRepairNormalizesSharedRecords guards the record-granularity
// contract: core.ElemSource allows consecutive pairs to share one
// record, and the downstream push-mode stream enumerates records, not
// pairs — so when a splice lands backfill between two pairs sharing a
// record, the repairer must have re-materialised them as single-elem
// records or the stream would enumerate the shared record twice.
func TestRepairNormalizesSharedRecords(t *testing.T) {
	ts2 := t0.Add(2 * time.Second)
	a := core.Elem{Type: core.ElemAnnouncement, Timestamp: ts2, PeerASN: 65001,
		Prefix: netip.MustParsePrefix("203.0.113.0/24")}
	b := core.Elem{Type: core.ElemAnnouncement, Timestamp: ts2, PeerASN: 65002,
		Prefix: netip.MustParsePrefix("203.0.113.0/24")}
	shared := core.NewElemRecord("ris", "rrc00", core.DumpUpdates, ts2, []core.Elem{a, b})
	es, _ := shared.Elems()

	z, m, tail := mkPair(2, 65003), mkPair(4, 65004), mkPair(6, 65006)
	live := &fakeLive{events: []any{
		pair{shared, &es[0]}, // first half of the shared record
		gapAt(2, 5),
		pair{shared, &es[1]}, // second half closes the gap report
		tail,
	}}
	// Backfill re-serves both shared elems (must dedup) plus the two
	// genuinely lost ones; z ties with the shared record's timestamp,
	// so the merge lands it between the two shared-record pairs.
	bf := &fakeBackfill{universe: []pair{
		{core.NewElemRecord("ris", "rrc00", core.DumpUpdates, ts2, []core.Elem{a}), &a},
		{core.NewElemRecord("ris", "rrc00", core.DumpUpdates, ts2, []core.Elem{b}), &b},
		z, m,
	}}
	r := New(live, bf, Options{})

	// Drive the real downstream consumer: a push-mode core.Stream,
	// whose record-pointer dedup is what shared records would break.
	s := core.NewLiveStream(context.Background(), r, core.Filters{})
	defer s.Close()
	counts := map[uint32]int{}
	total := 0
	for {
		_, elem, err := s.NextElem()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		counts[elem.PeerASN]++
		total++
	}
	for _, asn := range []uint32{65001, 65002, 65003, 65004, 65006} {
		if counts[asn] != 1 {
			t.Fatalf("elem %d seen %d times, want exactly 1 (all: %v)", asn, counts[asn], counts)
		}
	}
	if total != 5 {
		t.Fatalf("total elems = %d, want 5 (%v)", total, counts)
	}
}

// quietLive delivers a scripted prefix, then (optionally) reports one
// loss window and goes quiet forever: no closing elem ever arrives. It
// implements core.FeedClock, as rislive's ping watermarks do, so a
// time-driven repairer can see the feed move past the window anyway.
type quietLive struct {
	items []pair
	gap   core.Gap // zero Until means "no gap to report"
	feed  time.Time
	// needArm delays the gap report until arm() is called, letting a
	// test sequence the report after its deliveries were consumed.
	needArm bool
	i       int // pump-goroutine-local

	mu        sync.Mutex
	exhausted bool
	reported  bool
	armed     bool
}

func (q *quietLive) arm() {
	q.mu.Lock()
	q.armed = true
	q.mu.Unlock()
}

func (q *quietLive) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	if q.i < len(q.items) {
		p := q.items[q.i]
		q.i++
		return p.rec, p.elem, nil
	}
	q.mu.Lock()
	q.exhausted = true
	q.mu.Unlock()
	<-ctx.Done()
	return nil, nil, ctx.Err()
}

func (q *quietLive) TakeGaps() []core.Gap {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.exhausted || q.reported || q.gap.Until.IsZero() || (q.needArm && !q.armed) {
		return nil
	}
	q.reported = true
	return []core.Gap{q.gap}
}

func (q *quietLive) FeedTime() time.Time { return q.feed }

func (q *quietLive) Close() error { return nil }

// readN consumes exactly n elems from the repairer, checking time
// order.
func readN(t *testing.T, r *Repairer, n int) []pair {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make([]pair, 0, n)
	for len(out) < n {
		rec, elem, err := r.NextElem(ctx)
		if err != nil {
			t.Fatalf("after %d/%d elems: %v (stats %+v)", len(out), n, err, r.SourceStats())
		}
		if k := len(out); k > 0 && elem.Timestamp.Before(out[k-1].elem.Timestamp) {
			t.Fatalf("time order violated at elem %d: %v after %v", k, elem.Timestamp, out[k-1].elem.Timestamp)
		}
		out = append(out, pair{rec, elem})
	}
	return out
}

// TestRepairQuietFeedRepairsWithoutNextElem proves repairs are
// time-driven: the feed reports a loss window and then falls silent —
// no live elem ever follows — yet the window is backfilled and
// delivered, because the poll ticker drains the gap and the feed clock
// shows the window has passed. Under the old elem-driven loop this gap
// starved forever.
func TestRepairQuietFeedRepairsWithoutNextElem(t *testing.T) {
	universe := make([]pair, 0, 6)
	for s := 0; s < 6; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &quietLive{
		items: []pair{universe[0], universe[1]},
		gap:   gapAt(1, 5),
		feed:  t0.Add(6 * time.Second),
	}
	bf := &fakeBackfill{universe: universe}
	r := New(live, bf, Options{PollInterval: 5 * time.Millisecond})
	defer r.Close()

	out := readN(t, r, 6) // 0,1 live; 2..5 spliced with no elem after the gap
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005) {
		t.Fatalf("flow = %v", got)
	}
	st := r.SourceStats()
	if st.Repairs != 1 || st.BackfilledElems != 4 || st.DuplicatesDropped != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// blockedBackfill never completes until its context dies — a stand-in
// for an archive fetch still in flight when the process stops.
type blockedBackfill struct{}

func (blockedBackfill) Backfill(ctx context.Context, from, until time.Time) (*core.Stream, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestRepairCursorSurvivesRestart is the restart-safety path: process
// one stops with a window still unrepaired (its fetch never finishes);
// process two restores the cursor, re-queues the window, bridges its
// own downtime as a "restart" gap, and delivers the exact elem
// multiset across both lifetimes — no duplicates, no holes.
func TestRepairCursorSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor.json")
	universe := make([]pair, 0, 8)
	for s := 0; s < 8; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}

	// Process one: delivers 0,1, loses [1,5]... and dies with the
	// backfill fetch still hanging.
	live1 := &quietLive{
		items: []pair{universe[0], universe[1]},
		gap:   gapAt(1, 5),
		feed:  t0.Add(5 * time.Second),
	}
	r1 := New(live1, blockedBackfill{}, Options{CursorPath: path, PollInterval: 2 * time.Millisecond})
	readN(t, r1, 2)
	deadline := time.Now().Add(10 * time.Second)
	for r1.SourceStats().RepairsInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("window never dispatched (stats %+v)", r1.SourceStats())
		}
		time.Sleep(time.Millisecond)
	}
	r1.Close()
	drain(t, r1) // EOF only after the coordinator persisted the cursor

	st, err := (&cursor{path: path}).load()
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(1 * time.Second); !st.Watermark.Equal(want) {
		t.Fatalf("persisted watermark = %v, want %v", st.Watermark, want)
	}
	if len(st.Windows) != 1 || !st.Windows[0].Until.Equal(t0.Add(5*time.Second)) {
		t.Fatalf("persisted windows = %+v, want the unrepaired [1,5]", st.Windows)
	}

	// Process two: fresh live source picking up at second 6. The
	// persisted window and the restart bridge [watermark, 6] coalesce
	// into one backfill; elems 0 and 1 must not reappear.
	live2 := &quietLive{
		items: []pair{universe[6], universe[7]},
		feed:  t0.Add(7 * time.Second),
	}
	r2 := New(live2, &fakeBackfill{universe: universe}, Options{CursorPath: path, PollInterval: 2 * time.Millisecond})
	out := readN(t, r2, 6)
	if got := asns(out); !eqASNs(got, 65002, 65003, 65004, 65005, 65006, 65007) {
		t.Fatalf("post-restart flow = %v", got)
	}
	r2.Close()
	drain(t, r2)

	st, err = (&cursor{path: path}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Windows) != 0 {
		t.Fatalf("windows still persisted after repair: %+v", st.Windows)
	}
	if want := t0.Add(7 * time.Second); !st.Watermark.Equal(want) {
		t.Fatalf("final watermark = %v, want %v", st.Watermark, want)
	}
}

// TestRepairQuietFeedSplicesAtExactWatermark pins the boundary the
// rislive client actually produces: a gap closed by a ping watermark
// has Until equal to the feed clock, and nothing ever advances the
// clock afterwards. The splice must not demand feed time strictly
// beyond the window, or the fetched backfill would be held forever.
func TestRepairQuietFeedSplicesAtExactWatermark(t *testing.T) {
	universe := make([]pair, 0, 6)
	for s := 0; s < 6; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}
	live := &quietLive{
		items: []pair{universe[0], universe[1]},
		gap:   gapAt(1, 5),
		feed:  t0.Add(5 * time.Second), // == gap Until, never advances
	}
	bf := &fakeBackfill{universe: universe}
	r := New(live, bf, Options{PollInterval: 5 * time.Millisecond})
	defer r.Close()

	out := readN(t, r, 6)
	if got := asns(out); !eqASNs(got, 65000, 65001, 65002, 65003, 65004, 65005) {
		t.Fatalf("flow = %v", got)
	}
}

// TestRepairCursorKeepsDropsWindowBelowEdge pins the completeness
// semantics of the persisted watermark: a drops window opens below
// elems already delivered (its missing elems interleave with them),
// so the cursor must persist the window's start — not the delivery
// edge — as the watermark, or the restore clip would amputate the
// window and lose the dropped elems for good. The mirror cost,
// re-delivery of already-seen elems above the watermark, is accepted.
func TestRepairCursorKeepsDropsWindowBelowEdge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor.json")
	universe := make([]pair, 0, 9)
	for s := 0; s < 9; s++ {
		universe = append(universe, mkPair(s, uint32(65000+s)))
	}

	// Process one delivers 0..4 (edge = 4), then a drops window [1,5]
	// arrives — elem 3 (say) was dropped below the edge — and the
	// process dies with the fetch hanging.
	live1 := &quietLive{
		items:   universe[:5],
		gap:     gapAt(1, 5),
		feed:    t0.Add(5 * time.Second),
		needArm: true, // report the window only after 0..4 are consumed
	}
	r1 := New(live1, blockedBackfill{}, Options{CursorPath: path, PollInterval: 2 * time.Millisecond})
	readN(t, r1, 5)
	live1.arm()
	deadline := time.Now().Add(10 * time.Second)
	for r1.SourceStats().RepairsInFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("window never dispatched (stats %+v)", r1.SourceStats())
		}
		time.Sleep(time.Millisecond)
	}
	r1.Close()
	drain(t, r1)

	st, err := (&cursor{path: path}).load()
	if err != nil {
		t.Fatal(err)
	}
	if want := t0.Add(1 * time.Second); !st.Watermark.Equal(want) {
		t.Fatalf("persisted watermark = %v, want the window start %v (not the delivery edge)", st.Watermark, want)
	}

	// Process two must re-cover (1,5] — including the sub-edge elems —
	// so the dropped elem is repaired; re-delivery of 2..4 is the
	// accepted cost.
	live2 := &quietLive{
		items: []pair{universe[6], universe[7]},
		feed:  t0.Add(8 * time.Second),
	}
	r2 := New(live2, &fakeBackfill{universe: universe}, Options{CursorPath: path, PollInterval: 2 * time.Millisecond})
	defer r2.Close()
	// The restored window plus the restart bridge cover (1,6]:
	// re-delivering 2..4, filling 5; the live tail contributes 6,7 —
	// six elems in all.
	out := readN(t, r2, 6)
	counts := map[uint32]int{}
	for _, p := range out {
		counts[p.elem.PeerASN]++
	}
	// Everything in (1, 7] must be present at least once; elem 5 (the
	// one only the window covers) exactly once.
	for asn := uint32(65002); asn <= 65007; asn++ {
		if counts[asn] == 0 {
			t.Fatalf("hole at %d after restart: %v", asn, counts)
		}
	}
	if counts[65000] != 0 || counts[65001] != 0 {
		t.Fatalf("elems at/below the watermark re-delivered: %v", counts)
	}
}

// TestRepairCloseDuringBackoffRequeuesWindow pins the shutdown
// contract of the retry wait: a window whose fetch failed transiently
// and is waiting out its backoff when Close lands is shutdown, not
// retry exhaustion — the cursor keeps it as unrepaired and nothing is
// abandoned. Close must also cut the wait short instead of sitting out
// an hour-long Retry-After.
func TestRepairCloseDuringBackoffRequeuesWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cursor.json")
	universe := []pair{mkPair(0, 65000), mkPair(1, 65001)}
	live := &quietLive{items: universe, gap: gapAt(1, 5), feed: t0.Add(5 * time.Second)}
	bf := &fakeBackfill{
		fail:    true,
		failErr: &resilience.HTTPError{URL: "http://archive/busy", Status: 503, RetryAfter: time.Hour},
	}
	r := New(live, bf, Options{CursorPath: path, RetryMax: 3, PollInterval: 2 * time.Millisecond})
	readN(t, r, 2)
	// The first attempt's failure is counted before the backoff wait
	// begins.
	deadline := time.Now().Add(10 * time.Second)
	for r.SourceStats().RepairFailures == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("first backfill attempt never failed (stats %+v)", r.SourceStats())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	r.Close()
	drain(t, r)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v: the backoff wait ignored shutdown", d)
	}

	st := r.SourceStats()
	if st.RepairsAbandoned != 0 || st.RepairFailures != 1 || bf.count() != 1 {
		t.Fatalf("stats = %+v after %d fetches, want 1 failure and nothing abandoned", st, bf.count())
	}
	cur, err := (&cursor{path: path}).load()
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Windows) != 1 || !cur.Windows[0].From.Equal(t0.Add(time.Second)) || !cur.Windows[0].Until.Equal(t0.Add(5*time.Second)) {
		t.Fatalf("persisted windows = %+v, want the unrepaired [1,5]", cur.Windows)
	}

	// The same contract at the worker, where no coordinator race can
	// hide it: a fetch cancelled mid-backoff reports the cancellation.
	r2 := New(live, bf, Options{RetryMax: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer time.AfterFunc(10*time.Second, cancel).Stop()
	go func() {
		for r2.SourceStats().RepairFailures == 0 && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res := r2.fetchWithRetries(ctx, &window{gap: gapAt(1, 5)})
	if !errors.Is(res.err, context.Canceled) || res.attempts != 1 || r2.SourceStats().RepairFailures != 1 {
		t.Fatalf("fetch cancelled in backoff: err = %v after %d attempts (stats %+v), want context.Canceled after 1 counted failure",
			res.err, res.attempts, r2.SourceStats())
	}
}
