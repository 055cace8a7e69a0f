package rislive

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// Client consumes a RIS Live-style SSE feed and implements
// core.ElemSource, so core.NewLiveStream(ctx, client, filters) turns
// any push feed into a regular *core.Stream.
//
// The client owns the connection lifecycle: its reconnects run under
// one resilience.Policy (capped, jittered exponential backoff; a
// rejected handshake classified like any HTTP error), it bounds the
// silence between messages with ReadTimeout, and — delay-err style —
// it treats messages older than Staleness as a broken upstream,
// forcing a reconnect. Fields must be set before the first NextElem
// call.
type Client struct {
	// URL is the feed endpoint; Sub is appended to its query string.
	// http(s) and ws(s) schemes are accepted.
	URL string
	Sub Subscription
	// Transport selects the wire framing: TransportSSE, TransportWS,
	// or TransportAuto (default) to pick by URL scheme — ws/wss
	// connect over WebSocket, http/https over SSE. Both transports
	// carry the same JSON envelope and share the reconnect, gap, and
	// staleness machinery.
	Transport string
	// HTTPClient overrides the default client (tests, custom TLS). The
	// default applies ConnectTimeout to dialing only, never to the
	// stream itself.
	HTTPClient *http.Client
	// ConnectTimeout bounds dial/TLS/first-response (default 10s).
	ConnectTimeout time.Duration
	// ReadTimeout is the maximum silence between feed messages before
	// the connection is considered dead (default 30s). Server pings
	// reset it, so it should exceed the server's keepalive interval.
	ReadTimeout time.Duration
	// Staleness, when positive, treats a data message whose timestamp
	// lags the local clock by more than this as a connection error
	// (RIS Live's delay-err). Leave zero for historical replays, whose
	// timestamps are arbitrarily old.
	Staleness time.Duration
	// Backoff is the initial reconnect delay (default 500ms), doubled
	// per consecutive failure up to BackoffMax (default 30s), with
	// ±25% jitter. A connection that delivered messages is followed by
	// one Backoff step.
	Backoff    time.Duration
	BackoffMax time.Duration
	// RetryMax bounds consecutive failed connection attempts (a
	// connection that delivered messages restarts the count); 0 means
	// retry forever.
	RetryMax int
	// Logf, when set, receives connection lifecycle logs.
	Logf func(format string, args ...any)

	startOnce sync.Once
	ctx       context.Context // cancelled by Close
	cancel    context.CancelFunc
	pairs     chan pair

	mu       sync.Mutex
	terminal error

	messages      atomic.Uint64
	pings         atomic.Uint64
	connects      atomic.Uint64
	staleResets   atomic.Uint64
	serverDropped atomic.Uint64
	droppedTotal  atomic.Uint64
	gapsSeen      atomic.Uint64

	// gapMu guards the pending gap list drained by TakeGaps.
	gapMu sync.Mutex
	gaps  []core.Gap

	// Gap-tracking state, touched only by the connection-management
	// goroutine (run → streamConn → dispatch). lastTs is the timestamp
	// of the last delivered elem; stableTs is the delivered-complete
	// watermark — the latest feed time T such that every subscribed
	// elem with timestamp <= T is known delivered (advanced on pings
	// whose drop counter shows no new loss, seeded at subscribe from
	// the server's hello-ping watermark so loss before the first
	// delivery is still a bounded, repairable window).
	lastTs      time.Time
	stableTs    time.Time
	gapFrom     time.Time
	gapReason   string
	gapPending  bool
	connDropped uint64 // server drop counter last reported this connection

	// feedMicro is the feed clock (Unix micro): the latest feed time
	// observed through deliveries or ping watermarks. Read by FeedTime
	// from other goroutines.
	feedMicro atomic.Int64
}

type pair struct {
	rec  *core.Record
	elem *core.Elem
}

// NewClient builds a client for the given endpoint and subscription.
func NewClient(endpoint string, sub Subscription) *Client {
	return &Client{URL: endpoint, Sub: sub}
}

// ClientStats is a snapshot of the client counters.
type ClientStats struct {
	// Messages counts delivered data messages; Pings counts keepalives.
	Messages uint64
	Pings    uint64
	// Reconnects counts successful connections after the first.
	Reconnects uint64
	// StaleResets counts reconnects forced by staleness detection.
	StaleResets uint64
	// ServerDropped is the latest per-subscriber drop counter the
	// server reported on a ping: messages this client missed because
	// it consumed too slowly.
	ServerDropped uint64
	// DroppedTotal accumulates server-reported drops across every
	// connection (ServerDropped resets when the client re-subscribes).
	DroppedTotal uint64
	// Gaps counts loss windows detected so far (see TakeGaps).
	Gaps uint64
}

// Stats returns a snapshot of the client counters.
func (c *Client) Stats() ClientStats {
	s := ClientStats{
		Messages:      c.messages.Load(),
		Pings:         c.pings.Load(),
		StaleResets:   c.staleResets.Load(),
		ServerDropped: c.serverDropped.Load(),
		DroppedTotal:  c.droppedTotal.Load(),
		Gaps:          c.gapsSeen.Load(),
	}
	if n := c.connects.Load(); n > 0 {
		s.Reconnects = n - 1
	}
	return s
}

// SourceStats implements core.StatsReporter, surfacing the client's
// completeness counters through Stream.SourceStats.
func (c *Client) SourceStats() core.SourceStats {
	s := c.Stats()
	return core.SourceStats{
		LiveElems:       s.Messages,
		Reconnects:      s.Reconnects,
		UpstreamDropped: s.DroppedTotal,
		Gaps:            s.Gaps,
	}
}

// TakeGaps implements core.GapReporter: it drains the loss windows
// detected since the last call. A gap becomes visible here before the
// elem that closes it (the one at Gap.Until) is delivered through
// NextElem, so a consumer that drains gaps after every NextElem always
// learns about a hole before streaming past it.
//
// Two signals open a gap. A reconnect opens one at the last delivered
// timestamp — everything published while the client was away is
// missing. A keepalive ping whose drop counter grew opens one at the
// delivered-complete watermark (the last delivered timestamp as of the
// previous clean ping), because the dropped elems interleave
// arbitrarily with the ones delivered since then. Either way the gap
// closes at the next delivered elem's timestamp. Windows are
// conservative: they may cover elems that did arrive, so splicing a
// backfill requires deduplication (internal/gaprepair).
func (c *Client) TakeGaps() []core.Gap {
	c.gapMu.Lock()
	defer c.gapMu.Unlock()
	gaps := c.gaps
	c.gaps = nil
	return gaps
}

// openGap starts a loss window unless one is already pending (the
// window only widens; the earliest From stays authoritative). It is a
// no-op while the client has no feed-time watermark at all — neither a
// delivery nor a server hello-ping — because such loss has no lower
// bound and precedes the stream rather than interrupting it.
func (c *Client) openGap(reason string) {
	if c.gapPending {
		return
	}
	from := c.stableTs
	if from.IsZero() {
		from = c.lastTs
	}
	if from.IsZero() {
		return
	}
	c.gapFrom, c.gapReason, c.gapPending = from, reason, true
	metClientGapsOpened.Inc()
}

// closeGap records the pending window, ending at the elem about to be
// delivered — or at a server ping watermark, which covers everything
// published up to it. It must run before that elem (or any elem after
// that watermark) is enqueued so TakeGaps ordering holds.
func (c *Client) closeGap(until time.Time) {
	g := core.Gap{From: c.gapFrom, Until: until, Reason: c.gapReason}
	c.gapPending = false
	c.stableTs = until // complete up to here, modulo the reported gap
	c.gapsSeen.Add(1)
	metClientGapsClosed.Inc()
	c.gapMu.Lock()
	c.gaps = append(c.gaps, g)
	c.gapMu.Unlock()
	c.logf("rislive: detected %s", g)
}

// NextElem implements core.ElemSource: it blocks until the next elem
// arrives, ctx is cancelled (returning ctx.Err()), or the client is
// closed or gives up (io.EOF / the terminal error). The first call
// starts the connection-management goroutine.
func (c *Client) NextElem(ctx context.Context) (*core.Record, *core.Elem, error) {
	c.startOnce.Do(c.start)
	select {
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case p, ok := <-c.pairs:
		if !ok {
			c.mu.Lock()
			err := c.terminal
			c.mu.Unlock()
			if err != nil {
				return nil, nil, err
			}
			return nil, nil, io.EOF
		}
		return p.rec, p.elem, nil
	}
}

// Close stops the client; blocked NextElem calls return io.EOF. Safe
// to call multiple times.
func (c *Client) Close() error {
	c.startOnce.Do(c.start) // ensure run() exists so pairs gets closed
	c.cancel()
	return nil
}

func (c *Client) start() {
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.pairs = make(chan pair, 256)
	go c.run()
}

// run is the connection-management loop: one resilience.Policy.Do
// whose attempts are connections (streamConn), until Close, a
// permanent error, or RetryMax consecutive unproductive connections.
// It records the terminal error NextElem reports.
func (c *Client) run() {
	defer close(c.pairs)
	pol := resilience.Policy{
		MaxAttempts: c.RetryMax,
		Backoff:     orDefault(c.Backoff, 500*time.Millisecond),
		MaxBackoff:  orDefault(c.BackoffMax, 30*time.Second),
	}
	if pol.MaxAttempts <= 0 {
		pol.MaxAttempts = math.MaxInt
	}
	err := pol.Do(c.ctx, "rislive: connect", c.streamConn)
	if c.ctx.Err() != nil {
		return // closed: NextElem reports io.EOF
	}
	var ee *resilience.ExhaustedError
	if errors.As(err, &ee) {
		err = fmt.Errorf("rislive: giving up after %d failed connection attempts: %w", ee.Attempts, err)
	}
	c.mu.Lock()
	c.terminal = err
	c.mu.Unlock()
}

// orDefault returns d, or def when d is not positive: the zero value of
// every duration field selects its documented default.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// connected records an established connection (transport names a
// non-SSE one for the log) and returns the read timeout that bounds
// its silences.
func (c *Client) connected(transport string) time.Duration {
	if n := c.connects.Add(1); n > 1 {
		metClientReconnects.Inc()
	}
	c.connDropped = 0 // the server's drop counter is per-subscription
	c.logf("rislive: connected to %s%s", c.URL, transport)
	return orDefault(c.ReadTimeout, 30*time.Second)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	timeout := orDefault(c.ConnectTimeout, 10*time.Second)
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: timeout}).DialContext,
			TLSHandshakeTimeout:   timeout,
			ResponseHeaderTimeout: timeout,
		},
	}
}

// errReadTimeout ends a connection that stayed silent for ReadTimeout.
var errReadTimeout = errors.New("rislive: read timeout")

// streamOnce establishes one SSE connection and consumes it until
// error, returning how many data messages it delivered. Cancelling ctx
// (Close) cancels the request.
func (c *Client) streamOnce(ctx context.Context, u *url.URL) (int, error) {
	done := ctx.Done()
	endpoint := u.String()
	// An SSE stream forced onto a ws(s) URL uses the equivalent http
	// scheme; the endpoint and protocol are the same, only the default
	// framing differs.
	if strings.HasPrefix(endpoint, "ws") {
		endpoint = "http" + strings.TrimPrefix(endpoint, "ws")
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint, nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("rislive: HTTP %s: %w", resp.Status, rejected(resp, endpoint))
	}
	readTimeout := c.connected("")
	// The read timer cancels the request context, unblocking the
	// scanner; it is paused while a message is being delivered so
	// consumer backpressure is not mistaken for upstream silence. The
	// body read then fails with the cause, errReadTimeout: a transient
	// fault, where a bare context.Canceled would classify permanent.
	rt := time.AfterFunc(readTimeout, func() { cancel(errReadTimeout) })
	defer rt.Stop()

	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(nil, 1<<20)
	delivered := 0
	var data []byte
	for (rt.Reset(readTimeout) || true) && scanner.Scan() {
		line := scanner.Bytes()
		switch {
		case len(bytes.TrimSpace(line)) == 0:
			if len(data) == 0 {
				continue // keepalive comment boundary
			}
			rt.Stop()
			msg := data
			data = nil
			n, err := c.dispatch(msg, done)
			delivered += n
			if err != nil {
				return delivered, err
			}
		case line[0] == ':':
			// SSE comment: transport-level keepalive.
		case bytes.HasPrefix(line, []byte("data:")):
			payload := bytes.TrimPrefix(bytes.TrimPrefix(line, []byte("data:")), []byte(" "))
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, payload...)
		default:
			// Other SSE fields (event:, id:, retry:) are ignored.
		}
	}
	if err := scanner.Err(); err != nil {
		return delivered, err
	}
	return delivered, io.EOF
}

// rejected drains a handshake response with an unexpected status and
// reports it as a resilience.HTTPError, so the reconnect policy gives
// up on a 4xx and floors its backoff at a Retry-After hint.
func rejected(resp *http.Response, endpoint string) error {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return &resilience.HTTPError{
		URL:        endpoint,
		Status:     resp.StatusCode,
		RetryAfter: resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()),
	}
}

// dispatch handles one complete feed message, returning how many data
// messages it delivered and any error that must break the connection.
// done is the client's Done channel, which aborts a blocked delivery.
func (c *Client) dispatch(payload []byte, done <-chan struct{}) (int, error) {
	var msg Message
	if err := json.Unmarshal(payload, &msg); err != nil {
		c.logf("rislive: bad message %q: %v", payload, err)
		return 0, nil // tolerate garbage; the stream may recover
	}
	switch msg.Type {
	case TypePing:
		c.pings.Add(1)
		c.serverDropped.Store(msg.Dropped)
		pingTs := msg.Time()
		if msg.Dropped > c.connDropped {
			c.droppedTotal.Add(msg.Dropped - c.connDropped)
			metClientUpstreamDropped.Add(msg.Dropped - c.connDropped)
			c.connDropped = msg.Dropped
			// Opens at the pre-ping watermark; the ping's own
			// timestamp may then close it right below.
			c.openGap("drops")
		}
		if c.gapPending {
			// The watermark is ordered after everything it covers, so
			// a watermark at/after the window start closes the window:
			// every elem the gap can be missing was published by now.
			// This is what lets a quiet feed repair without waiting
			// for the next elem to happen along.
			if !pingTs.IsZero() && !pingTs.Before(c.gapFrom) {
				c.closeGap(pingTs)
			}
		} else {
			// No loss outstanding: delivery is complete through the
			// later of the last delivered elem and the server
			// watermark (which also seeds a fresh client's watermark
			// from the hello ping, before any delivery).
			c.stableTs = core.MaxTime(c.lastTs, pingTs)
		}
		c.advanceFeedTime(pingTs)
		return 0, nil
	case TypeError:
		return 0, fmt.Errorf("rislive: server error: %s", msg.Error)
	case TypeMessage:
	default:
		return 0, nil // unknown types are skipped, the protocol can grow
	}
	if msg.Data == nil {
		return 0, nil
	}
	rec, elem, err := msg.Data.Record()
	if err != nil {
		c.logf("rislive: undecodable elem: %v", err)
		return 0, nil
	}
	if c.Staleness > 0 {
		if delay := time.Since(elem.Timestamp); delay > c.Staleness {
			c.staleResets.Add(1)
			metClientStaleResets.Inc()
			return 0, fmt.Errorf("rislive: message delay %s exceeds staleness limit %s", delay.Round(time.Millisecond), c.Staleness)
		}
	}
	if c.gapPending {
		// Record the window before enqueueing its closing elem, so a
		// consumer draining TakeGaps after each NextElem learns about
		// the hole before streaming past it.
		c.closeGap(elem.Timestamp)
	}
	c.lastTs = elem.Timestamp
	// Counted before the send, so a consumer that has received the elem
	// never reads a Stats that misses it.
	c.messages.Add(1)
	select {
	case c.pairs <- pair{rec: rec, elem: elem}:
		metClientMessages.Inc()
		c.advanceFeedTime(elem.Timestamp)
		return 1, nil
	case <-done:
		c.messages.Add(^uint64(0)) // never delivered
		return 0, io.EOF
	}
}

// advanceFeedTime moves the feed clock forward, never backward.
func (c *Client) advanceFeedTime(ts time.Time) {
	if ts.IsZero() {
		return
	}
	us := ts.UnixMicro()
	for {
		cur := c.feedMicro.Load()
		if us <= cur {
			return
		}
		if c.feedMicro.CompareAndSwap(cur, us) {
			// Staleness = wall clock minus this gauge. With several
			// clients in one process the freshest wins, which is the
			// useful bound for "is the process seeing the feed at all".
			metClientFeedTime.Set(us / 1e6)
			return
		}
	}
}

// FeedTime implements core.FeedClock: the latest feed time observed
// through elem deliveries or server ping watermarks, or the zero time
// before either. Gap repairers use it to tell that the feed has moved
// past a loss window even when no elem has been delivered since.
func (c *Client) FeedTime() time.Time {
	us := c.feedMicro.Load()
	if us == 0 {
		return time.Time{}
	}
	return time.UnixMicro(us).UTC()
}

// endpoint resolves the configuration into the feed URL, with the
// subscription parameters merged into its query, and the transport:
// ws reports whether to connect over WebSocket. Its errors are
// configuration errors, which no amount of reconnecting fixes.
func (c *Client) endpoint() (u *url.URL, ws bool, err error) {
	switch c.Transport {
	case TransportWS:
		ws = true
	case TransportSSE, TransportAuto:
	default:
		return nil, false, fmt.Errorf("rislive: unknown transport %q (want %q, %q, or empty for auto)", c.Transport, TransportSSE, TransportWS)
	}
	u, err = url.Parse(c.URL)
	if err != nil {
		return nil, false, fmt.Errorf("rislive: bad URL %q: %w", c.URL, err)
	}
	switch u.Scheme {
	case "http", "https", "ws", "wss":
	default:
		return nil, false, fmt.Errorf("rislive: bad URL %q: need http(s) or ws(s)", c.URL)
	}
	if c.Transport == TransportAuto {
		ws = u.Scheme == "ws" || u.Scheme == "wss"
	}
	q := u.Query()
	for k, vs := range c.Sub.Values() {
		for _, v := range vs {
			q.Add(k, v)
		}
	}
	u.RawQuery = q.Encode()
	return u, ws, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}
