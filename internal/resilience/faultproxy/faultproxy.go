// Package faultproxy is a fault-injecting HTTP middleman for tests:
// it forwards requests to an upstream handler and corrupts the
// transfer on the way back — connection resets at chosen byte
// offsets, stalls, truncations, 5xx bursts with Retry-After, and
// Range requests honoured or deliberately ignored. The resilience
// layer's property tests drive archives through it to prove elem
// streams come out byte-identical under injected faults.
//
// Faults are queued per URL path (Push) or drawn at random per
// request from a seeded generator (Randomize); each request consumes
// at most one fault. The proxy also counts requests per path, so
// tests can assert "a permanent 404 cost exactly one request".
package faultproxy

import (
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"
)

// FaultKind selects how a response is corrupted.
type FaultKind int

const (
	// FaultNone forwards the response untouched.
	FaultNone FaultKind = iota
	// FaultReset writes Offset body bytes, then hard-closes the
	// connection (SO_LINGER 0 → RST), so the client sees a mid-body
	// connection error.
	FaultReset
	// FaultTruncate declares the full Content-Length but writes only
	// Offset bytes before closing cleanly, so the client sees
	// io.ErrUnexpectedEOF.
	FaultTruncate
	// FaultStall writes Offset bytes, sleeps Delay, then finishes the
	// response normally.
	FaultStall
	// FaultStatus short-circuits with Status (e.g. 503) and an
	// optional Retry-After header, never reaching the upstream.
	FaultStatus
	// FaultIgnoreRange strips the Range header before forwarding, so
	// a resuming client gets a 200 full body instead of a 206 and must
	// fall back to skip-ahead re-reading.
	FaultIgnoreRange
)

// Fault describes one injected failure.
type Fault struct {
	Kind FaultKind
	// Offset is the body byte position the fault triggers at (clamped
	// to the response size). For Range requests it is relative to the
	// partial body being served.
	Offset int64
	// Status is the response code for FaultStatus.
	Status int
	// RetryAfter, when positive, is sent as a Retry-After header (in
	// whole seconds) with FaultStatus.
	RetryAfter time.Duration
	// Delay is the stall duration for FaultStall.
	Delay time.Duration
}

// Random configures per-request fault probabilities for Randomize.
// Draws are ordered: status, then reset, then truncate, then ignore-
// range, then stall; the first hit wins, so the probabilities are
// effectively conditional.
type Random struct {
	StatusProb      float64
	ResetProb       float64
	TruncateProb    float64
	IgnoreRangeProb float64
	StallProb       float64
	// Statuses are the codes FaultStatus draws from (default 503).
	Statuses []int
	// MaxStall bounds random stall durations (default 50ms).
	MaxStall time.Duration
}

// Proxy is the fault-injecting handler. Zero value is not usable;
// use New.
type Proxy struct {
	upstream http.Handler

	mu sync.Mutex
	// plans, counts, rng and random are guarded by mu.
	plans  map[string][]Fault // per-path FIFO fault queues
	counts map[string]int     // requests seen per path
	rng    *rand.Rand         // nil until Randomize
	random Random
}

// New wraps upstream in a fault proxy with no faults queued: until
// configured, it is a transparent (but counting) relay.
func New(upstream http.Handler) *Proxy {
	return &Proxy{
		upstream: upstream,
		plans:    map[string][]Fault{},
		counts:   map[string]int{},
	}
}

// Push queues faults for one URL path; each matching request consumes
// the next queued fault, and requests beyond the queue pass through
// clean (unless Randomize is active).
func (p *Proxy) Push(path string, faults ...Fault) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.plans[path] = append(p.plans[path], faults...)
}

// Randomize draws a fault per planless request from cfg using a
// deterministic seeded generator, so a failing run reproduces from
// its seed.
func (p *Proxy) Randomize(seed uint64, cfg Random) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rng = rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	p.random = cfg
}

// Requests returns how many requests the proxy has seen for path.
func (p *Proxy) Requests(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[path]
}

// TotalRequests returns how many requests the proxy has seen.
func (p *Proxy) TotalRequests() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.counts {
		n += c
	}
	return n
}

// nextFault picks the fault for one request: the path's queued plan
// first, then a random draw, else none.
func (p *Proxy) nextFault(path string) Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[path]++
	if q := p.plans[path]; len(q) > 0 {
		f := q[0]
		p.plans[path] = q[1:]
		return f
	}
	if p.rng != nil {
		return p.draw()
	}
	return Fault{}
}

// draw samples one fault from the Random config. Caller holds p.mu.
func (p *Proxy) draw() Fault {
	cfg := p.random
	switch r := p.rng.Float64(); {
	case r < cfg.StatusProb:
		statuses := cfg.Statuses
		if len(statuses) == 0 {
			statuses = []int{http.StatusServiceUnavailable}
		}
		f := Fault{Kind: FaultStatus, Status: statuses[p.rng.IntN(len(statuses))]}
		if p.rng.Float64() < 0.5 {
			f.RetryAfter = time.Second // parsed, but floored by test backoffs
		}
		return f
	case r < cfg.StatusProb+cfg.ResetProb:
		return Fault{Kind: FaultReset, Offset: -1}
	case r < cfg.StatusProb+cfg.ResetProb+cfg.TruncateProb:
		return Fault{Kind: FaultTruncate, Offset: -1}
	case r < cfg.StatusProb+cfg.ResetProb+cfg.TruncateProb+cfg.IgnoreRangeProb:
		return Fault{Kind: FaultIgnoreRange}
	case r < cfg.StatusProb+cfg.ResetProb+cfg.TruncateProb+cfg.IgnoreRangeProb+cfg.StallProb:
		max := cfg.MaxStall
		if max <= 0 {
			max = 50 * time.Millisecond
		}
		return Fault{Kind: FaultStall, Offset: -1, Delay: time.Duration(p.rng.Int64N(int64(max)))}
	}
	return Fault{}
}

// randOffset picks a uniform fault offset strictly inside an n-byte
// body (so random resets and truncations always cut real bytes).
func (p *Proxy) randOffset(n int) int64 {
	if n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng == nil {
		return int64(n / 2)
	}
	return p.rng.Int64N(int64(n))
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fault := p.nextFault(r.URL.Path)
	if fault.Kind == FaultStatus {
		if fault.RetryAfter > 0 {
			secs := int64(fault.RetryAfter / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		w.WriteHeader(fault.Status)
		return
	}
	if fault.Kind == FaultIgnoreRange {
		r = r.Clone(r.Context())
		r.Header.Del("Range")
	}
	// Record the upstream response so the fault can slice its body at
	// an exact byte offset. Dump fixtures are small; buffering is fine.
	rec := httptest.NewRecorder()
	p.upstream.ServeHTTP(rec, r)
	res := rec.Result()
	body := rec.Body.Bytes()
	off := fault.Offset
	if off < 0 {
		off = p.randOffset(len(body))
	}
	if off > int64(len(body)) {
		off = int64(len(body))
	}
	hdr := w.Header()
	for k, vs := range res.Header {
		hdr[k] = vs
	}
	switch fault.Kind {
	case FaultReset:
		p.reset(w, res.StatusCode, body[:off], len(body))
	case FaultTruncate:
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(res.StatusCode)
		w.Write(body[:off])
		// Returning with fewer bytes than declared makes net/http
		// close the connection; the client sees io.ErrUnexpectedEOF.
	case FaultStall:
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(res.StatusCode)
		w.Write(body[:off])
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		time.Sleep(fault.Delay)
		w.Write(body[off:])
	default:
		hdr.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(res.StatusCode)
		w.Write(body)
	}
}

// reset sends response headers plus a body prefix by hand over the
// hijacked connection, then aborts it with SO_LINGER 0 so the client
// observes a TCP reset mid-body.
func (p *Proxy) reset(w http.ResponseWriter, status int, prefix []byte, total int) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		// No hijack support (e.g. HTTP/2 test server): degrade to a
		// truncation, which is still a mid-body transfer failure.
		w.Header().Set("Content-Length", strconv.Itoa(total))
		w.WriteHeader(status)
		w.Write(prefix)
		return
	}
	conn, bufrw, err := hj.Hijack()
	if err != nil {
		return
	}
	defer conn.Close()
	bufrw.WriteString("HTTP/1.1 " + strconv.Itoa(status) + " " + http.StatusText(status) + "\r\n")
	bufrw.WriteString("Content-Length: " + strconv.Itoa(total) + "\r\n")
	bufrw.WriteString("Content-Type: application/octet-stream\r\n\r\n")
	bufrw.Write(prefix)
	bufrw.Flush()
	if tcp, ok := conn.(*net.TCPConn); ok {
		tcp.SetLinger(0)
	}
}
