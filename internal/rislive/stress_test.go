package rislive_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// The fan-out stress/property suite. It lives in the external test
// package with its harness (fanout_test.go), driving the server through
// its exported surface; the internals it needs — the shard pre-index
// and the drain gate — come through export_test.go.

var stressT0 = time.Date(2016, 5, 12, 0, 0, 0, 0, time.UTC)

// stressSize returns the subscriber/elem counts: 10k subscribers by
// default (the scale the sharded fan-out is for), a smaller run under
// -short, and RISLIVE_STRESS_SUBS / RISLIVE_STRESS_ELEMS overrides so
// CI can cap the race-detector runs and a soak can push 100k.
func stressSize(t *testing.T) (subs, elems int) {
	t.Helper()
	subs, elems = 10000, 200
	if testing.Short() || raceEnabled {
		subs, elems = 1024, 100
	}
	if v := os.Getenv("RISLIVE_STRESS_SUBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad RISLIVE_STRESS_SUBS %q", v)
		}
		subs = n
	}
	if v := os.Getenv("RISLIVE_STRESS_ELEMS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("bad RISLIVE_STRESS_ELEMS %q", v)
		}
		elems = n
	}
	return subs, elems
}

func waitSubscribers(t *testing.T, srv *rislive.Server, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for srv.Stats().Subscribers < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d subscribers registered", srv.Stats().Subscribers, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFanoutStressBothTransports is the headline fan-out property: N
// in-process subscribers with randomized filters, half SSE and half
// WebSocket, each receiving EXACTLY its filtered subsequence of the
// published feed — same elems (byte-for-byte payloads), same order,
// nothing extra, nothing dropped — and a clean, leak-free shutdown.
func TestFanoutStressBothTransports(t *testing.T) {
	baseline := runtime.NumGoroutine()
	nsub, nelem := stressSize(t)
	r := rand.New(rand.NewSource(8))

	srv := &rislive.Server{
		// Buffers sized to the whole feed: this test asserts exact
		// delivery, so no subscriber may drop. KeepAlive stays long so
		// the only pings are hello/seed watermarks.
		KeepAlive:  time.Hour,
		BufferSize: nelem + 16,
	}
	sinks := make([]*Sink, nsub)
	for i := range sinks {
		sinks[i] = Connect(srv, RandSub(r), i%2 == 1)
	}
	waitSubscribers(t, srv, nsub, 60*time.Second)

	pubs := RandPubs(r, nelem, stressT0)
	keys := make([]string, nelem)
	for j := range pubs {
		keys[j] = pubs[j].Key()
	}
	// Brute-force oracle: every sink's expected delivery sequence.
	expected := make([][]string, nsub)
	for i := range sinks {
		sub := sinks[i].Sub
		for j := range pubs {
			if pubs[j].Matches(&sub) {
				expected[i] = append(expected[i], keys[j])
			}
		}
	}

	for j := range pubs {
		pubs[j].Publish(srv)
	}

	// Delivery is asynchronous through the shard queues; wait until
	// every sink has its full expected count.
	deadline := time.Now().Add(120 * time.Second)
	for {
		done := true
		for i := range sinks {
			if sinks[i].DataCount() < len(expected[i]) {
				done = false
				break
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			var short, wantN, gotN int
			for i := range sinks {
				if got := sinks[i].DataCount(); got < len(expected[i]) {
					short++
					wantN, gotN = len(expected[i]), got
				}
			}
			t.Fatalf("%d sinks still short (e.g. %d of %d delivered); server stats %+v",
				short, gotN, wantN, srv.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	if st := srv.Stats(); st.Published != uint64(nelem) || st.Dropped != 0 {
		t.Fatalf("server stats %+v, want Published=%d Dropped=0", st, nelem)
	}
	var delivered int
	for i, s := range sinks {
		if err := s.Err(); err != nil {
			t.Fatalf("sink %d (ws=%v): %v", i, s.WS, err)
		}
		got := s.Data()
		delivered += len(got)
		if len(got) != len(expected[i]) {
			t.Fatalf("sink %d (ws=%v): %d deliveries, want %d", i, s.WS, len(got), len(expected[i]))
		}
		// Exact filtered sequence: the right payloads in publish order
		// (which subsumes the multiset check), timestamps in order.
		lastTs := -1.0
		for k := range got {
			if got[k].Key != expected[i][k] {
				t.Fatalf("sink %d (ws=%v) delivery %d:\n got %s\nwant %s",
					i, s.WS, k, got[k].Key, expected[i][k])
			}
			if got[k].Timestamp < lastTs {
				t.Fatalf("sink %d (ws=%v): timestamp regressed at delivery %d (%v after %v)",
					i, s.WS, k, got[k].Timestamp, lastTs)
			}
			lastTs = got[k].Timestamp
		}
		if d := s.MaxDropped(); d != 0 {
			t.Fatalf("sink %d (ws=%v): ping reported %d drops, want 0", i, s.WS, d)
		}
	}
	t.Logf("stress: %d subscribers (%d ws), %d elems, %d deliveries", nsub, nsub/2, nelem, delivered)

	// Shutdown: Close must stop every shard goroutine and disconnect
	// every subscriber; nothing may leak.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, s := range sinks {
		s.Close()
	}
	WaitGoroutines(t, baseline, 30*time.Second)
}

// TestShardIndexSupersetProperty pins the pre-index contract Publish
// relies on: for ANY subscription set (including after removals) and
// ANY elem, if some live subscription matches the elem then the index
// must report the shard plausible. The index may overshoot (project
// and peer-ASN are not indexed); it must never undershoot, because a
// skipped shard's subscribers silently miss the elem.
func TestShardIndexSupersetProperty(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	const cases = 600
	for cs := 0; cs < cases; cs++ {
		var ix rislive.TestIndex
		subs := make([]rislive.Subscription, 1+r.Intn(10))
		for i := range subs {
			subs[i] = RandSub(r)
			ix.Add(&subs[i])
		}
		// Remove a random subset so refcount decrements are part of the
		// property, not just fresh indexes.
		var live []rislive.Subscription
		for i := range subs {
			if r.Intn(100) < 30 {
				ix.Remove(&subs[i])
			} else {
				live = append(live, subs[i])
			}
		}
		for _, p := range RandPubs(r, 20, stressT0) {
			e := p.Elem
			brute := false
			for i := range live {
				if p.Matches(&live[i]) {
					brute = true
					break
				}
			}
			if brute && !ix.Plausible(p.Collector, &e) {
				t.Fatalf("case %d: index rejected an elem a live subscription matches\nelem: %+v (collector %s, project %s)\nlive subs: %+v",
					cs, e, p.Collector, p.Project, live)
			}
		}
	}
}

// ovElem publishes one announcement at stressT0+sec.
func ovElem(srv *rislive.Server, sec int) {
	e := core.Elem{
		Type:      core.ElemAnnouncement,
		Timestamp: stressT0.Add(time.Duration(sec) * time.Second),
		PeerAddr:  netip.MustParseAddr("192.0.2.1"),
		PeerASN:   65000,
		Prefix:    netip.MustParsePrefix("203.0.113.0/24"),
	}
	srv.Publish("ris", "rrc00", &e)
}

func TestShardOverflowDropGapSSE(t *testing.T) { testShardOverflowDropGap(t, false) }
func TestShardOverflowDropGapWS(t *testing.T)  { testShardOverflowDropGap(t, true) }

// testShardOverflowDropGap forces a shard-queue overflow with the
// drain gate and pins the full accounting across one transport: the
// queued elems still arrive, the rejected one is counted as a drop,
// and the next watermark ping makes the client report a gap window
// that covers exactly the lost elem — from the last complete
// watermark (the hello seed) to the overflow timestamp.
func testShardOverflowDropGap(t *testing.T, ws bool) {
	gate := make(chan struct{})
	srv := &rislive.Server{Shards: 1, ShardQueue: 2, KeepAlive: 25 * time.Millisecond}
	srv.SetShardGate(gate)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	// Seed the publish watermark before the client connects, so its
	// hello ping carries feed time 100 — the gap's lower bound.
	ovElem(srv, 100)

	url := hs.URL
	if ws {
		url = "ws" + strings.TrimPrefix(url, "http")
	}
	c := rislive.NewClient(url, rislive.Subscription{})
	c.Backoff = 10 * time.Millisecond
	c.BackoffMax = 50 * time.Millisecond
	c.ReadTimeout = 2 * time.Second
	defer c.Close()

	elems := make(chan time.Time, 16)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		for {
			_, e, err := c.NextElem(ctx)
			if err != nil {
				return
			}
			elems <- e.Timestamp
		}
	}()
	waitSubscribers(t, srv, 1, 10*time.Second)

	// The gate holds every drain, so these three publishes hit the
	// shard queue back-to-back: 101 and 102 fill it (ShardQueue: 2),
	// 103 overflows — dropped before any subscriber buffer, with its
	// timestamp recorded for the watermark.
	ovElem(srv, 101)
	ovElem(srv, 102)
	ovElem(srv, 103)

	// Release the gate for the rest of the test; drains and keepalive
	// ticks free-run from here.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case gate <- struct{}{}:
			case <-stop:
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for _, wantSec := range []int{101, 102} {
		select {
		case ts := <-elems:
			if want := stressT0.Add(time.Duration(wantSec) * time.Second); !ts.Equal(want) {
				t.Fatalf("delivered elem at %v, want %v", ts, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("elem %d never delivered; server stats %+v", wantSec, srv.Stats())
		}
	}

	// The next keepalive ping pairs (watermark 103, dropped 1); the
	// client must turn it into one "drops" gap [100, 103].
	var gaps []core.Gap
	deadline := time.Now().Add(30 * time.Second)
	for len(gaps) == 0 {
		gaps = append(gaps, c.TakeGaps()...)
		if time.Now().After(deadline) {
			t.Fatalf("no gap reported; client stats %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one", gaps)
	}
	g := gaps[0]
	if want := stressT0.Add(100 * time.Second); !g.From.Equal(want) {
		t.Errorf("gap From = %v, want %v", g.From, want)
	}
	if want := stressT0.Add(103 * time.Second); !g.Until.Equal(want) {
		t.Errorf("gap Until = %v, want %v (the overflowed elem's timestamp)", g.Until, want)
	}
	if g.Reason != "drops" {
		t.Errorf("gap Reason = %q, want %q", g.Reason, "drops")
	}
	if st := c.Stats(); st.DroppedTotal != 1 {
		t.Errorf("client DroppedTotal = %d, want 1", st.DroppedTotal)
	}
	if st := srv.Stats(); st.Dropped != 1 || st.Published != 4 {
		t.Errorf("server stats %+v, want Published=4 Dropped=1", st)
	}
	select {
	case ts := <-elems:
		t.Fatalf("unexpected extra elem at %v", ts)
	default:
	}
}

// TestServerCloseStopsShards pins the Close contract: after Close
// returns, every shard goroutine has exited, every subscriber (both
// transports) is disconnected, further publishes are no-ops, and the
// process goroutine count returns to its baseline.
func TestServerCloseStopsShards(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := rand.New(rand.NewSource(3))
	srv := &rislive.Server{Shards: 6, KeepAlive: 20 * time.Millisecond, BufferSize: 128}
	const nsub = 32
	sinks := make([]*Sink, nsub)
	for i := range sinks {
		sinks[i] = Connect(srv, RandSub(r), i%2 == 0)
	}
	waitSubscribers(t, srv, nsub, 10*time.Second)
	for _, p := range RandPubs(r, 50, stressT0) {
		p.Publish(srv)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, s := range sinks {
		s.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Subscribers != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still registered after Close", srv.Stats().Subscribers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	published := srv.Stats().Published
	ovElem(srv, 999)
	if got := srv.Stats().Published; got != published {
		t.Fatalf("publish after Close went through (published %d -> %d)", published, got)
	}
	WaitGoroutines(t, baseline, 15*time.Second)
}
