package rislive

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
)

// Server fans out elems to live subscribers over SSE or WebSocket. It
// is an http.Handler: every GET establishes one stream whose
// subscription filter is parsed from the query string (see
// Subscription); requests carrying a WebSocket upgrade get RFC 6455
// framing, everything else gets SSE, on the same endpoint. Producers
// call Publish; per-shard goroutines drain batches into per-client
// buffers (see shard.go for the fan-out architecture).
//
// Slow clients do not stall the feed: each subscriber owns a bounded
// buffer and messages that arrive while it is full are dropped for
// that subscriber only (drop-newest), counted per client and globally,
// and reported to the client on every keepalive ping. The same policy
// applies one level up: a shard whose queue is full rejects the
// publish for all its subscribers, counted the same way. This is the
// explicit policy choice of a live feed — late data is as good as no
// data — in contrast to the archive path, where completeness wins.
type Server struct {
	// KeepAlive is the ping interval (default 15s). Pings double as
	// liveness signals for client read timeouts and carry the
	// subscriber's drop counter.
	KeepAlive time.Duration
	// BufferSize is the per-subscriber message buffer (default 1024).
	BufferSize int
	// Shards is the number of fan-out shards (default 8, capped at 64).
	// Subscribers hash across shards; each shard is one goroutine.
	Shards int
	// ShardQueue bounds each shard's queued-elem batch (default 8192).
	// A publish hitting a full shard queue is dropped for that shard's
	// subscribers — counted and reported like per-subscriber drops.
	ShardQueue int
	// Logf, when set, receives connection lifecycle logs.
	Logf func(format string, args ...any)

	// ready flips after initShards; Publish checks it with one atomic
	// load so the hot path never touches the sync.Once.
	ready     atomic.Bool
	initOnce  sync.Once
	closeOnce sync.Once
	shards    []*shard
	closed    chan struct{}
	wg        sync.WaitGroup
	queueCap  int
	// shardGate, when set before first use (tests only), installs a
	// drain gate on every shard; see shard.gate.
	shardGate chan struct{}

	published atomic.Uint64
	dropped   atomic.Uint64
	// watermark is the publish watermark: the timestamp (Unix micro)
	// of the last elem handed to Publish. Stored before fan-out so a
	// concurrently-registering subscriber either receives the elem or
	// sees a hello watermark covering it — never neither.
	watermark atomic.Int64
	// wsSubs counts connected WebSocket subscribers. Publish renders
	// the WS wire frame only when it is nonzero, keeping the SSE-only
	// fan-out cost identical to the pre-WS server.
	wsSubs atomic.Int64
	subSeq atomic.Uint64
}

// frame is one queued wire chunk plus the time it was enqueued by
// Publish — zero for pings, whose latency is not a publish-to-write
// measurement. It travels the subscriber channel by value, so the
// timestamp rides along without an allocation.
type frame struct {
	b   []byte
	enq int64 // UnixNano at Publish enqueue; 0 for non-elem frames
}

func (s *Server) init() { s.initOnce.Do(s.initShards) }

func (s *Server) initShards() {
	n := s.Shards
	if n <= 0 {
		n = 8
	}
	if n > 64 {
		n = 64 // Publish tracks plausible shards in one uint64 mask
	}
	q := s.ShardQueue
	if q <= 0 {
		q = 8192
	}
	s.queueCap = q
	s.closed = make(chan struct{})
	s.shards = make([]*shard, n)
	keepAlive := s.keepAliveInterval()
	for i := range s.shards {
		sh := &shard{
			srv:  s,
			wake: make(chan struct{}, 1),
			gate: s.shardGate,
			subs: make(map[*subscriber]struct{}),
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go sh.loop(keepAlive)
	}
	s.ready.Store(true)
}

func (s *Server) keepAliveInterval() time.Duration {
	if s.KeepAlive > 0 {
		return s.KeepAlive
	}
	return 15 * time.Second
}

// ServerStats is a snapshot of the server counters.
type ServerStats struct {
	// Subscribers is the number of currently connected clients.
	Subscribers int
	// Published counts Publish calls; Dropped counts per-subscriber
	// message drops due to full buffers or shard-queue overflow (one
	// publish reaching N slow clients counts N).
	Published uint64
	Dropped   uint64
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	s.init()
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.subs)
		sh.mu.Unlock()
	}
	return ServerStats{
		Subscribers: n,
		Published:   s.published.Load(),
		Dropped:     s.dropped.Load(),
	}
}

// sseFrame renders one complete SSE event — "data: <payload>\n\n" —
// so the wire bytes of a published elem are built once and shared
// verbatim by every matching SSE subscriber's writer; the
// per-subscriber cost is a filter check and a channel send. WS
// subscribers share a wsTextFrame render the same way.
func sseFrame(payload []byte) []byte {
	b := make([]byte, 0, len("data: ")+len(payload)+2)
	b = append(b, "data: "...)
	b = append(b, payload...)
	return append(b, '\n', '\n')
}

// marshalFrame encodes a message and frames it for the SSE wire.
func marshalFrame(m Message) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return sseFrame(payload), nil
}

// renderPing encodes a watermark keepalive for one transport. A zero
// mark elides the timestamp: there is no feed time to report.
func renderPing(mark int64, dropped uint64, ws bool) []byte {
	m := Message{Type: TypePing, Dropped: dropped}
	if mark > 0 {
		m.Timestamp = float64(mark) / 1e6
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil
	}
	if ws {
		return wsTextFrame(payload)
	}
	return sseFrame(payload)
}

// Publish fans one elem out to every subscriber whose filter matches.
// The elem is encoded once per call (JSON payload, plus one frame
// render per transport in use) and the same byte slices are shared by
// every matching subscriber. Each shard's pre-index is probed with the
// elem's cheap keys; shards with no plausible subscriber receive only
// a coalesced watermark advance. Publish never blocks on subscribers:
// a full shard queue drops the elem for that shard (counted per
// subscriber). Safe for concurrent use.
//
//bgp:hotpath
func (s *Server) Publish(project, collector string, e *core.Elem) {
	if !s.ready.Load() {
		s.init()
	}
	select {
	case <-s.closed:
		return
	default:
	}
	s.published.Add(1)
	metPublished.Inc()
	ts := e.Timestamp.UnixMicro()
	// Advance the watermark before fanning out (see field doc).
	s.watermark.Store(ts)
	var mask uint64
	for i := 0; i < len(s.shards); i++ {
		if s.shards[i].plausible(collector, e) {
			mask |= 1 << uint(i)
		}
	}
	if mask == 0 {
		for i := 0; i < len(s.shards); i++ {
			s.shards[i].advance(ts)
		}
		return
	}
	ent, ok := s.buildEntry(project, collector, e, ts)
	if !ok {
		return // cannot happen for our own types
	}
	for i := 0; i < len(s.shards); i++ {
		if mask&(1<<uint(i)) != 0 {
			s.shards[i].enqueue(ent)
		} else {
			s.shards[i].advance(ts)
		}
	}
}

// buildEntry encodes the elem once and copies out the match keys the
// shard loops need; the WS frame is rendered only when a WebSocket
// subscriber is connected.
func (s *Server) buildEntry(project, collector string, e *core.Elem, ts int64) (shardEntry, bool) {
	payload, err := json.Marshal(Message{Type: TypeMessage, Data: EncodeElem(project, collector, e)})
	if err != nil {
		return shardEntry{}, false
	}
	ent := shardEntry{
		sse:       sseFrame(payload),
		ts:        ts,
		enq:       time.Now().UnixNano(),
		project:   project,
		collector: collector,
		peerASN:   e.PeerASN,
		typ:       e.Type,
		prefix:    e.Prefix,
	}
	if s.wsSubs.Load() > 0 {
		ent.ws = wsTextFrame(payload)
	}
	return ent, true
}

// register hashes a new subscriber onto a shard, indexes its
// subscription, and returns it with the hello-seed watermark.
//
// Ordering argument for the seed: Publish stores the watermark before
// probing any shard, and this function reads it after the subscriber
// is visible in the shard (insertion under sh.mu precedes the load in
// program order). So for any elem: if the shard probe missed this
// subscriber, the probe ran before insertion completed, hence after
// the insertion's watermark load would see that elem's timestamp —
// i.e. the seed covers it. Every elem is either delivered through the
// shard queue or covered by the hello seed; never neither. The same
// argument (with wsSubs incremented before insertion) guarantees any
// entry missing a WS render predates this subscriber's seed.
func (s *Server) register(sub Subscription, ws bool) (*subscriber, int64) {
	s.init()
	size := s.BufferSize
	if size <= 0 {
		size = 1024
	}
	id := s.subSeq.Add(1)
	sh := s.shards[int(shardHash(id)%uint64(len(s.shards)))]
	c := &subscriber{
		sub:  sub,
		ch:   make(chan frame, size),
		done: make(chan struct{}),
		sh:   sh,
		ws:   ws,
	}
	if ws {
		s.wsSubs.Add(1)
		metSubsWS.Inc()
	} else {
		metSubsSSE.Inc()
	}
	sh.mu.Lock()
	sh.subs[c] = struct{}{}
	sh.idx.add(&c.sub)
	seeded := s.watermark.Load()
	if seeded == 0 {
		// Nothing published yet: no feed time to seed with. The shard
		// loop chases this subscriber with a watermark ping on the
		// first publish it processes, bounding loss before the first
		// delivery.
		c.needSeed = true
		sh.seedWait++
	}
	sh.mu.Unlock()
	return c, seeded
}

func (s *Server) unregister(c *subscriber, remote string) {
	sh := c.sh
	sh.mu.Lock()
	if _, ok := sh.subs[c]; ok {
		delete(sh.subs, c)
		sh.idx.remove(&c.sub)
		if c.needSeed {
			c.needSeed = false
			sh.seedWait--
		}
	}
	sh.mu.Unlock()
	if c.ws {
		s.wsSubs.Add(-1)
		metSubsWS.Dec()
	} else {
		metSubsSSE.Dec()
	}
	s.logf("rislive: client %s disconnected (dropped %d)", remote, c.dropped.Load())
}

// DisconnectClients force-closes every current subscriber's stream,
// as after a server restart. Clients with reconnection enabled come
// back on their own; tests use this to exercise that path.
func (s *Server) DisconnectClients() {
	s.init()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for c := range sh.subs {
			c.disconnect()
		}
		sh.mu.Unlock()
	}
}

// Close stops the fan-out: every shard goroutine drains its queue and
// exits, then every connected subscriber is force-disconnected. Close
// does not return until all shard goroutines have stopped, so a
// closed server leaks nothing. Publishes after Close are no-ops.
func (s *Server) Close() error {
	s.init()
	s.closeOnce.Do(func() {
		close(s.closed)
		s.wg.Wait()
		s.DisconnectClients()
	})
	return nil
}

// ServeHTTP serves one live stream per GET: WebSocket when the request
// asks for an upgrade, SSE otherwise.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if wsUpgradeRequested(r.Header.Get("Connection"), r.Header.Get("Upgrade")) {
		s.serveWS(w, r)
		return
	}
	s.serveSSE(w, r)
}

func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request) {
	sub, err := ParseSubscription(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	c, seeded := s.register(sub, false)
	defer s.unregister(c, r.RemoteAddr)
	s.logf("rislive: client %s subscribed %v", r.RemoteAddr, sub.Values())

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	write := func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	}
	// The liveness frame is a bare SSE comment.
	s.writeLoop(c, seeded, write, []byte(": keepalive\n\n"), nil, r.Context().Done())
}

// writeLoop is the subscriber write loop of both transports. Frames
// arrive pre-rendered (shared across subscribers), so the writer
// copies nothing and formats nothing. Elem frames carry their
// Publish-enqueue time, which becomes the publish-to-write latency
// observation once write lands. The loop returns when write fails or
// end fires; when the subscriber is disconnected it writes bye, if
// set, and returns.
func (s *Server) writeLoop(c *subscriber, seeded int64, write func([]byte) error, liveness, bye []byte, end <-chan struct{}) {
	keepAlive := s.keepAliveInterval()
	lastWrite := time.Now()
	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()
	send := func(f frame) bool {
		if write(f.b) != nil {
			return false
		}
		lastWrite = time.Now()
		if f.enq != 0 {
			metPublishWrite.Observe(float64(lastWrite.UnixNano()-f.enq) / 1e9)
		}
		return true
	}
	// Hello ping: tell the client the current feed time at subscribe,
	// before anything else, so a client that never receives an elem
	// still has a watermark to bound its loss windows with. It must
	// carry the registration-time seed, NOT a live mark: elems
	// published since registration sit undelivered in c.ch, and a
	// hello claiming their timestamps would let a disconnect lose
	// them below every future gap window. Skipped when nothing had
	// been published yet — there is no feed time to report (the shard
	// loop chases this subscriber with one once there is).
	if seeded > 0 && !send(frame{b: renderPing(seeded, 0, c.ws)}) {
		return
	}
	for {
		select {
		case <-end:
			return
		case <-c.done:
			if bye != nil {
				// Best effort, so well-behaved clients see an orderly
				// shutdown rather than a cut socket.
				write(bye)
			}
			return
		case f := <-c.ch:
			if !send(f) {
				return
			}
		case <-ticker.C:
			// Watermark pings arrive through c.ch from the shard loop,
			// already ordered behind the queued elems. This timer only
			// guards transport liveness: if nothing has been written
			// for a full interval (e.g. the buffer is saturated and
			// the shard skipped our ping), emit the liveness frame — it
			// carries no watermark claim, so ordering is moot.
			if time.Since(lastWrite) >= keepAlive && !send(frame{b: liveness}) {
				return
			}
		}
	}
}

// serveWS upgrades the connection per RFC 6455 and serves the same
// feed over WebSocket text frames. The handler goroutine is the only
// writer; a reader goroutine drains client frames (ping → pong via
// the subscriber channel, close/error → disconnect).
func (s *Server) serveWS(w http.ResponseWriter, r *http.Request) {
	sub, err := ParseSubscription(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		http.Error(w, "unsupported websocket version", http.StatusBadRequest)
		return
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "websocket unsupported", http.StatusInternalServerError)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, "hijack failed", http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Time{})
	if _, err := brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"); err != nil {
		return
	}
	if err := brw.Flush(); err != nil {
		return
	}

	c, seeded := s.register(sub, true)
	defer s.unregister(c, r.RemoteAddr)
	s.logf("rislive: ws client %s subscribed %v", r.RemoteAddr, sub.Values())

	readerDone := make(chan struct{})
	go wsServeRead(brw.Reader, c, readerDone)

	write := func(b []byte) error {
		_, err := conn.Write(b)
		return err
	}
	// The liveness frame is a ping; a disconnect sends a close frame.
	s.writeLoop(c, seeded, write, wsControlFrame(wsOpPing, nil), wsControlFrame(wsOpClose, nil), readerDone)
}

// wsServeRead drains client-to-server frames: pongs to client pings
// are routed through the subscriber channel (keeping the connection
// single-writer); a close frame or read error ends the stream. The
// goroutine exits when the handler closes the connection.
func wsServeRead(br *bufio.Reader, c *subscriber, done chan struct{}) {
	defer close(done)
	rd := wsReader{r: br}
	for {
		op, payload, err := rd.next()
		if err != nil {
			return
		}
		if op == wsOpPing {
			select {
			case c.ch <- frame{b: wsControlFrame(wsOpPong, payload)}:
			default:
			}
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}
