package rislive

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
)

// publishN publishes n announcements from alternating collectors.
func publishN(srv *Server, n int) {
	ts := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		project, collector := "ris", "rrc00"
		if i%2 == 1 {
			project, collector = "routeviews", "route-views2"
		}
		e := core.Elem{
			Type:      core.ElemAnnouncement,
			Timestamp: ts.Add(time.Duration(i) * time.Second),
			PeerAddr:  netip.MustParseAddr("192.0.2.1"),
			PeerASN:   uint32(65000 + i%4),
			Prefix:    netip.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i%200)),
		}
		srv.Publish(project, collector, &e)
	}
}

// readEvents consumes SSE events from one subscription until the
// context expires or n data messages arrived.
func readEvents(ctx context.Context, t *testing.T, baseURL string, sub Subscription, n int) []Message {
	t.Helper()
	u := baseURL + "?" + sub.Values().Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var out []Message
	scanner := bufio.NewScanner(resp.Body)
	data := 0
	for scanner.Scan() && data < n {
		line := strings.TrimSpace(scanner.Text())
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var msg Message
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &msg); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		out = append(out, msg)
		if msg.Type == TypeMessage {
			data++
		}
	}
	return out
}

// TestServerFanoutWithFilters delivers each published elem to exactly
// the subscribers whose filters match.
func TestServerFanoutWithFilters(t *testing.T) {
	srv := &Server{KeepAlive: time.Hour}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type result struct {
		msgs []Message
	}
	all := make(chan result, 1)
	rrcOnly := make(chan result, 1)
	go func() { all <- result{readEvents(ctx, t, hs.URL, Subscription{}, 10)} }()
	go func() {
		rrcOnly <- result{readEvents(ctx, t, hs.URL, Subscription{Collectors: []string{"rrc00"}}, 5)}
	}()

	// Wait for both subscribers to register before publishing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Subscribers < 2 {
		if time.Now().After(deadline) {
			t.Fatal("subscribers did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	publishN(srv, 10)

	a := <-all
	if len(a.msgs) != 10 {
		t.Fatalf("unfiltered subscriber got %d messages, want 10", len(a.msgs))
	}
	r := <-rrcOnly
	if len(r.msgs) != 5 {
		t.Fatalf("filtered subscriber got %d messages, want 5", len(r.msgs))
	}
	for _, m := range r.msgs {
		if m.Data.Host != "rrc00" {
			t.Fatalf("filter leak: host %q", m.Data.Host)
		}
	}
	if got := srv.Stats().Published; got != 10 {
		t.Fatalf("Published = %d", got)
	}
}

// TestSlowClientDropPolicy exercises the bounded-buffer drop policy
// deterministically against handler-less shard subscribers: messages
// beyond a subscriber's buffer are dropped for that subscriber only
// and counted per client and globally.
func TestSlowClientDropPolicy(t *testing.T) {
	srv := &Server{Shards: 1, KeepAlive: time.Hour}
	srv.init()
	defer srv.Close()
	sh := srv.shards[0]
	slow := &subscriber{ch: make(chan frame, 2), done: make(chan struct{}), sh: sh}
	fast := &subscriber{ch: make(chan frame, 64), done: make(chan struct{}), sh: sh}
	sh.mu.Lock()
	for _, c := range []*subscriber{slow, fast} {
		sh.subs[c] = struct{}{}
		sh.idx.add(&c.sub)
	}
	sh.mu.Unlock()

	publishN(srv, 10)

	// Delivery is asynchronous (the shard goroutine drains the queue);
	// wait for the batch to land.
	deadline := time.Now().Add(5 * time.Second)
	for len(fast.ch) != 10 || slow.dropped.Load() != 8 {
		if time.Now().After(deadline) {
			t.Fatalf("shard did not drain: fast buffered %d (want 10), slow dropped %d (want 8)",
				len(fast.ch), slow.dropped.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := fast.dropped.Load(); got != 0 {
		t.Fatalf("fast client dropped %d, want 0", got)
	}
	if len(slow.ch) != 2 {
		t.Fatalf("slow buffer holds %d, want 2", len(slow.ch))
	}
	stats := srv.Stats()
	if stats.Published != 10 || stats.Dropped != 8 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestKeepalivePingsCarryDrops checks that an idle subscription
// receives pings and that the ping reports the subscriber's drop
// counter over the wire.
func TestKeepalivePingsCarryDrops(t *testing.T) {
	srv := &Server{KeepAlive: 20 * time.Millisecond}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, hs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Simulate earlier slow-client drops on the live subscriber, then
	// watch for a ping carrying the counter.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Subscribers < 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber did not register")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, sh := range srv.shards {
		sh.mu.Lock()
		for c := range sh.subs {
			c.dropped.Store(7)
		}
		sh.mu.Unlock()
	}

	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var msg Message
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &msg); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if msg.Type != TypePing {
			continue
		}
		if msg.Dropped == 7 {
			return // ping carried the drop counter
		}
	}
	t.Fatalf("stream ended without a ping reporting drops: %v", scanner.Err())
}

// Transport frame kinds reported by subscribeFrames.
const (
	frameData     = "data"
	frameLiveness = "liveness" // SSE comment or WebSocket ping
	frameClose    = "close"    // WebSocket close frame
)

// subscribeFrames opens one raw subscription over SSE or WebSocket and
// reports the kind of every frame the server writes, in order. The
// channel closes when the server ends the stream.
func subscribeFrames(t *testing.T, hs *httptest.Server, ws bool) <-chan string {
	t.Helper()
	frames := make(chan string, 64)
	if !ws {
		resp, err := http.Get(hs.URL)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		go func() {
			defer close(frames)
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				switch line := scanner.Text(); {
				case strings.HasPrefix(line, ":"):
					frames <- frameLiveness
				case strings.HasPrefix(line, "data: "):
					frames <- frameData
				}
			}
		}()
		return frames
	}
	conn, err := net.Dial("tcp", hs.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	req := "GET / HTTP/1.1\r\nHost: feed\r\nConnection: Upgrade\r\nUpgrade: websocket\r\n" +
		"Sec-WebSocket-Version: 13\r\nSec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("upgrade: HTTP %d", resp.StatusCode)
	}
	go func() {
		defer close(frames)
		rd := wsReader{r: br}
		for {
			op, _, err := rd.next()
			switch op {
			case wsOpClose:
				frames <- frameClose
			case wsOpPing:
				frames <- frameLiveness
			case wsOpText:
				frames <- frameData
			}
			if err != nil {
				return
			}
		}
	}()
	return frames
}

func transportName(ws bool) string {
	if ws {
		return "ws"
	}
	return "sse"
}

// waitSubscribers polls the server until it counts want subscribers.
func waitSubscribers(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Subscribers != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers, want %d", srv.Stats().Subscribers, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisconnectClients force-closes streams server-side over both
// transports: the stream ends, a WebSocket subscriber gets a close
// frame before EOF, and the subscriber is unregistered.
func TestDisconnectClients(t *testing.T) {
	for _, ws := range []bool{false, true} {
		t.Run(transportName(ws), func(t *testing.T) {
			srv := &Server{KeepAlive: time.Hour}
			hs := httptest.NewServer(srv)
			defer hs.Close()
			defer srv.Close()

			frames := subscribeFrames(t, hs, ws)
			waitSubscribers(t, srv, 1)
			srv.DisconnectClients()
			timeout := time.After(5 * time.Second)
			last := ""
			for open := true; open; {
				select {
				case f, ok := <-frames:
					if ok {
						last = f
					}
					open = ok
				case <-timeout:
					t.Fatal("client stream did not close after DisconnectClients")
				}
			}
			if ws && last != frameClose {
				t.Fatalf("last frame before EOF = %q, want a close frame", last)
			}
			waitSubscribers(t, srv, 0)
		})
	}
}

// TestIdleSubscriberLiveness holds every shard loop, so no watermark
// ping reaches the subscriber: the transport's liveness frame (SSE
// comment, WebSocket ping) must still arrive within three keepalive
// intervals.
func TestIdleSubscriberLiveness(t *testing.T) {
	for _, ws := range []bool{false, true} {
		t.Run(transportName(ws), func(t *testing.T) {
			srv := &Server{KeepAlive: 200 * time.Millisecond}
			srv.SetShardGate(make(chan struct{})) // never released
			hs := httptest.NewServer(srv)
			defer hs.Close()
			defer srv.Close()

			frames := subscribeFrames(t, hs, ws)
			timeout := time.After(3 * srv.KeepAlive)
			for {
				select {
				case f, ok := <-frames:
					if !ok {
						t.Fatal("stream ended before a liveness frame")
					}
					if f == frameLiveness {
						return
					}
				case <-timeout:
					t.Fatalf("no liveness frame within %v", 3*srv.KeepAlive)
				}
			}
		})
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	srv := &Server{}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	resp, err := http.Get(hs.URL + "?peer_asn=junk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad subscription: HTTP %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL, "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: HTTP %d", resp.StatusCode)
	}
}
