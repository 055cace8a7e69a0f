package rislive_test

// The fan-out stress suite's harness: randomized subscription and elem
// generators over a small fixed feed topology, an in-process
// subscriber Sink speaking either wire transport (SSE or WebSocket)
// against rislive.Server's handler directly — no TCP, so tens of
// thousands of subscribers fit in one test process — and a
// goroutine-leak check for shutdown tests.
//
// The WebSocket sink carries its own minimal RFC 6455 frame parser,
// deliberately independent of the package's production decoder, so a
// framing bug on the server cannot be cancelled out by the same bug
// on the read side.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// Collector is one feed vantage point of the generator topology.
type Collector struct {
	Project string
	Name    string
}

// Collectors is the fixed topology every generated elem and
// subscription draws from; keeping it small makes random filters
// overlap random elems often enough that every match dimension is
// exercised in both directions.
var Collectors = []Collector{
	{"ris", "rrc00"},
	{"ris", "rrc01"},
	{"ris", "rrc11"},
	{"routeviews", "route-views2"},
	{"routeviews", "route-views.sg"},
}

// elemPrefixes are the prefixes announced elems draw from: nested v4
// ranges plus v6, so filter prefixes relate to them as exact, more-,
// and less-specifics.
var elemPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.0.0/16"),
	netip.MustParsePrefix("10.1.0.0/16"),
	netip.MustParsePrefix("10.2.128.0/20"),
	netip.MustParsePrefix("10.3.3.0/24"),
	netip.MustParsePrefix("192.0.2.0/24"),
	netip.MustParsePrefix("198.51.100.0/25"),
	netip.MustParsePrefix("2001:db8::/48"),
	netip.MustParsePrefix("2001:db8:1:2::/64"),
}

// filterPrefixes are the prefixes subscriptions filter on, chosen to
// hit elemPrefixes in every overlap relation — plus one range
// ("203.0.113.0/24") that matches nothing, so the no-match path of
// the shard pre-index is exercised too.
var filterPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.0.0/8"),
	netip.MustParsePrefix("10.1.0.0/16"),
	netip.MustParsePrefix("10.2.128.0/20"),
	netip.MustParsePrefix("10.3.3.128/25"),
	netip.MustParsePrefix("192.0.2.0/24"),
	netip.MustParsePrefix("2001:db8::/32"),
	netip.MustParsePrefix("203.0.113.0/24"),
}

var prefixModes = []core.PrefixMatch{
	core.MatchAny, core.MatchExact, core.MatchMoreSpecific, core.MatchLessSpecific,
}

var elemTypes = []core.ElemType{
	core.ElemAnnouncement, core.ElemWithdrawal, core.ElemRIB, core.ElemPeerState,
}

// pick returns k distinct indices in [0, n).
func pick(r *rand.Rand, n, k int) []int {
	idx := r.Perm(n)
	if k > n {
		k = n
	}
	return idx[:k]
}

// RandSub generates a random subscription: each dimension is filtered
// with moderate probability so the expected match fraction against
// RandPubs elems sits around a third — enough deliveries to check,
// enough rejections to matter.
func RandSub(r *rand.Rand) rislive.Subscription {
	var s rislive.Subscription
	if r.Intn(100) < 40 {
		for _, i := range pick(r, len(Collectors), 1+r.Intn(2)) {
			s.Collectors = append(s.Collectors, Collectors[i].Name)
		}
	}
	if r.Intn(100) < 25 {
		s.Projects = []string{[]string{"ris", "routeviews"}[r.Intn(2)]}
	}
	if r.Intn(100) < 30 {
		for _, i := range pick(r, 6, 1+r.Intn(2)) {
			s.PeerASNs = append(s.PeerASNs, uint32(65000+i))
		}
	}
	if r.Intn(100) < 40 {
		for _, i := range pick(r, len(elemTypes), 1+r.Intn(2)) {
			s.ElemTypes = append(s.ElemTypes, elemTypes[i])
		}
	}
	if r.Intn(100) < 40 {
		for _, i := range pick(r, len(filterPrefixes), 1+r.Intn(2)) {
			s.Prefixes = append(s.Prefixes, core.PrefixFilter{
				Prefix: filterPrefixes[i],
				Match:  prefixModes[r.Intn(len(prefixModes))],
			})
		}
	}
	return s
}

// Pub is one elem with its feed tags, ready to publish.
type Pub struct {
	Project   string
	Collector string
	Elem      core.Elem
}

// Publish hands the elem to the server the way a replay would.
func (p *Pub) Publish(srv *rislive.Server) {
	e := p.Elem
	srv.Publish(p.Project, p.Collector, &e)
}

// Key is the canonical identity of the published elem: its encoded
// feed payload. Sinks key received messages the same way, so expected
// and delivered multisets compare byte-for-byte.
func (p *Pub) Key() string {
	e := p.Elem
	b, err := json.Marshal(rislive.EncodeElem(p.Project, p.Collector, &e))
	if err != nil {
		panic(err)
	}
	return string(b)
}

// Matches reports whether the subscription would receive this elem.
func (p *Pub) Matches(sub *rislive.Subscription) bool {
	e := p.Elem
	return sub.Matches(p.Project, p.Collector, &e)
}

// RandPub generates one random elem at the given timestamp.
func RandPub(r *rand.Rand, ts time.Time) Pub {
	c := Collectors[r.Intn(len(Collectors))]
	e := core.Elem{
		Timestamp: ts,
		PeerAddr:  netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + r.Intn(200))}),
		PeerASN:   uint32(65000 + r.Intn(6)),
	}
	switch v := r.Intn(20); {
	case v < 11:
		e.Type = core.ElemAnnouncement
	case v < 16:
		e.Type = core.ElemWithdrawal
	case v < 18:
		e.Type = core.ElemRIB
	default:
		e.Type = core.ElemPeerState
	}
	if e.Type != core.ElemPeerState {
		e.Prefix = elemPrefixes[r.Intn(len(elemPrefixes))]
	}
	return Pub{Project: c.Project, Collector: c.Name, Elem: e}
}

// RandPubs generates n random elems with strictly increasing
// timestamps (one second apart from start), so every Key is unique
// and per-subscriber delivery order is checkable.
func RandPubs(r *rand.Rand, n int, start time.Time) []Pub {
	pubs := make([]Pub, n)
	for i := range pubs {
		pubs[i] = RandPub(r, start.Add(time.Duration(i)*time.Second))
	}
	return pubs
}

// Delivery is one data message as a sink received it.
type Delivery struct {
	// Key is the re-encoded payload, comparable with Pub.Key.
	Key string
	// Timestamp is the payload's feed timestamp (Unix seconds).
	Timestamp float64
}

// Sink is one in-process subscriber wired straight into the server's
// HTTP handler over the chosen transport. It records every data
// message (as a Delivery) and every ping, concurrently safe.
type Sink struct {
	Sub rislive.Subscription
	WS  bool

	mu    sync.Mutex
	data  []Delivery
	pings []rislive.Message
	err   error
	buf   []byte // SSE event reassembly

	cancel      func()
	conn        net.Conn // WS client pipe end
	handlerDone chan struct{}
	readerDone  chan struct{}
	closeOnce   sync.Once
}

// Connect subscribes a sink to the server over SSE (ws=false) or
// WebSocket (ws=true). The caller must Close it.
func Connect(srv *rislive.Server, sub rislive.Subscription, ws bool) *Sink {
	s := &Sink{Sub: sub, WS: ws, handlerDone: make(chan struct{})}
	target := "/?" + sub.Values().Encode()
	if !ws {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		ctx, cancel := context.WithCancel(req.Context())
		s.cancel = cancel
		w := &sseWriter{sink: s, h: make(http.Header)}
		go func() {
			defer close(s.handlerDone)
			srv.ServeHTTP(w, req.WithContext(ctx))
		}()
		return s
	}
	clientEnd, serverEnd := net.Pipe()
	s.conn = clientEnd
	s.readerDone = make(chan struct{})
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Sec-WebSocket-Version", "13")
	req.Header.Set("Sec-WebSocket-Key", "dGhlIHNhbXBsZSBub25jZQ==")
	w := &wsHijackWriter{
		h:    make(http.Header),
		conn: serverEnd,
		brw:  bufio.NewReadWriter(bufio.NewReader(serverEnd), bufio.NewWriter(serverEnd)),
	}
	go func() {
		defer close(s.handlerDone)
		srv.ServeHTTP(w, req)
		serverEnd.Close()
	}()
	go s.readWS()
	return s
}

// Close tears the subscriber down — cancelling the SSE request or
// closing the WS pipe — and waits for the handler (and WS reader) to
// exit. Idempotent.
func (s *Sink) Close() {
	s.closeOnce.Do(func() {
		if s.cancel != nil {
			s.cancel()
		}
		if s.conn != nil {
			s.conn.Close()
		}
	})
	<-s.handlerDone
	if s.readerDone != nil {
		<-s.readerDone
	}
}

// Err returns the first transport or decode error the sink hit.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// DataCount returns how many data messages arrived so far.
func (s *Sink) DataCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Data returns a snapshot of the received data messages, in arrival
// order.
func (s *Sink) Data() []Delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Delivery(nil), s.data...)
}

// Pings returns a snapshot of the received keepalive pings.
func (s *Sink) Pings() []rislive.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]rislive.Message(nil), s.pings...)
}

// MaxDropped returns the highest drop counter any ping reported.
func (s *Sink) MaxDropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max uint64
	for i := range s.pings {
		if s.pings[i].Dropped > max {
			max = s.pings[i].Dropped
		}
	}
	return max
}

func (s *Sink) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// record classifies one decoded envelope.
func (s *Sink) record(m rislive.Message) {
	switch m.Type {
	case rislive.TypeMessage:
		if m.Data == nil {
			s.setErr(errors.New("fanout sink: data message without payload"))
			return
		}
		b, err := json.Marshal(m.Data)
		if err != nil {
			s.setErr(err)
			return
		}
		s.mu.Lock()
		s.data = append(s.data, Delivery{Key: string(b), Timestamp: m.Data.Timestamp})
		s.mu.Unlock()
	case rislive.TypePing:
		s.mu.Lock()
		s.pings = append(s.pings, m)
		s.mu.Unlock()
	default:
		s.setErr(fmt.Errorf("fanout sink: unexpected message type %q", m.Type))
	}
}

// sseWriter is the SSE half: an http.ResponseWriter + Flusher whose
// Write reassembles and decodes SSE events as the handler emits them.
type sseWriter struct {
	sink *Sink
	h    http.Header
}

func (w *sseWriter) Header() http.Header { return w.h }
func (w *sseWriter) WriteHeader(int)     {}
func (w *sseWriter) Flush()              {}

func (w *sseWriter) Write(p []byte) (int, error) {
	s := w.sink
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	var events [][]byte
	for {
		i := bytes.Index(s.buf, []byte("\n\n"))
		if i < 0 {
			break
		}
		events = append(events, append([]byte(nil), s.buf[:i]...))
		s.buf = s.buf[i+2:]
	}
	s.mu.Unlock()
	for _, ev := range events {
		w.consumeEvent(ev)
	}
	return len(p), nil
}

func (w *sseWriter) consumeEvent(event []byte) {
	for _, line := range bytes.Split(event, []byte("\n")) {
		switch {
		case bytes.HasPrefix(line, []byte("data: ")):
			var m rislive.Message
			if err := json.Unmarshal(bytes.TrimPrefix(line, []byte("data: ")), &m); err != nil {
				w.sink.setErr(fmt.Errorf("fanout sink: bad SSE event %q: %w", line, err))
				return
			}
			w.sink.record(m)
		case len(line) == 0 || line[0] == ':':
			// Comment keepalive or blank: transport-level only.
		default:
			w.sink.setErr(fmt.Errorf("fanout sink: unexpected SSE line %q", line))
		}
	}
}

// wsHijackWriter is the WebSocket half's ResponseWriter: it hands the
// handler the server end of a net.Pipe via Hijack.
type wsHijackWriter struct {
	h    http.Header
	conn net.Conn
	brw  *bufio.ReadWriter
}

func (w *wsHijackWriter) Header() http.Header         { return w.h }
func (w *wsHijackWriter) WriteHeader(int)             {}
func (w *wsHijackWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *wsHijackWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	return w.conn, w.brw, nil
}

// readWS consumes the client end of the pipe: the 101 handshake
// response, then server frames until close or error. It closes the
// pipe on exit so a blocked handler write can never deadlock Close.
func (s *Sink) readWS() {
	defer close(s.readerDone)
	defer s.conn.Close()
	br := bufio.NewReader(s.conn)
	status, err := br.ReadString('\n')
	if err != nil {
		s.setErr(fmt.Errorf("fanout sink: ws handshake read: %w", err))
		return
	}
	if !strings.Contains(status, "101") {
		s.setErr(fmt.Errorf("fanout sink: ws handshake status %q", strings.TrimSpace(status)))
		return
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			s.setErr(fmt.Errorf("fanout sink: ws handshake headers: %w", err))
			return
		}
		if line == "\r\n" || line == "\n" {
			break
		}
	}
	for {
		op, payload, err := readWSFrame(br)
		if err != nil {
			if !isClosedPipe(err) {
				s.setErr(err)
			}
			return
		}
		switch op {
		case 0x1, 0x2: // text/binary: one JSON envelope per frame
			var m rislive.Message
			if err := json.Unmarshal(payload, &m); err != nil {
				s.setErr(fmt.Errorf("fanout sink: bad ws payload %q: %w", payload, err))
				return
			}
			s.record(m)
		case 0x8: // close: orderly shutdown
			return
		case 0x9, 0xA: // ping/pong: transport liveness only
		default:
			s.setErr(fmt.Errorf("fanout sink: unexpected ws opcode %#x", op))
			return
		}
	}
}

func isClosedPipe(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// readWSFrame parses one server-to-client frame: FIN, unmasked, with
// 7/16/64-bit lengths — everything the server is allowed to send.
func readWSFrame(br *bufio.Reader) (byte, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0]&0x80 == 0 {
		return 0, nil, fmt.Errorf("fanout sink: fragmented server frame (opcode %#x)", hdr[0]&0x0F)
	}
	if hdr[1]&0x80 != 0 {
		return 0, nil, errors.New("fanout sink: masked server-to-client frame")
	}
	n := uint64(hdr[1] & 0x7F)
	switch n {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		n = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return 0, nil, err
		}
		n = binary.BigEndian.Uint64(ext[:])
	}
	if n > 1<<21 {
		return 0, nil, fmt.Errorf("fanout sink: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, int(n))
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0] & 0x0F, payload, nil
}

// WaitGoroutines waits for the process goroutine count to come back
// down to the baseline captured before the test started its server
// and sinks, failing with a full stack dump if anything leaked.
func WaitGoroutines(t testing.TB, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<22)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running (baseline %d):\n%s", n, baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
