package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/core"
	"github.com/bgpstream-go/bgpstream/internal/obsv"
	"github.com/bgpstream-go/bgpstream/internal/rislive"
)

// taggedElem is a decoded elem with the feed tags Publish wants.
type taggedElem struct {
	project, collector string
	elem               core.Elem
}

// loadElems decodes up to limit elems of the part's dump type from a
// corpus directory with the sequential pipeline, cloned so that they
// outlive the stream, together with the prefix histogram of all of
// them.
func loadElems(dir string, t core.DumpType, limit int) ([]taggedElem, *prefixHistogram, error) {
	var out []taggedElem
	hist := &prefixHistogram{}
	_, err := scanElems(dir, core.Filters{DumpTypes: []core.DumpType{t}}, func(rec *core.Record, e *core.Elem) {
		if len(out) >= limit {
			return
		}
		hist.add(e, true)
		out = append(out, taggedElem{rec.Project, rec.Collector, e.Clone()})
	})
	if err == nil && len(out) == 0 {
		err = errors.New("no elems to publish")
	}
	return out, hist, err
}

// pushConfig shapes one push measurement.
type pushConfig struct {
	rate   int           // steady phase: elems/s, open loop
	steady time.Duration // steady phase length
	flood  time.Duration // flood phase: Publish back to back for this long
}

// pushResult is what one push measurement saw; every field is a number,
// and the child's JSON doubles as the run's extra report.
type pushResult struct {
	SteadyExpected  int     `json:"steady_expected"` // deliveries owed, both subscribers
	SteadyInOrder   int     `json:"steady_in_order"` // of those, received in exact order
	SteadySamples   int     `json:"steady_samples"`
	LatencyP50Ms    float64 `json:"latency_p50_ms"`
	LatencyP99Ms    float64 `json:"steady_latency_p99_ms"`
	LatencyTailMs   float64 `json:"steady_latency_tail_ms"` // at TailPercentile, the highest with ten samples beyond it
	TailPercentile  float64 `json:"steady_tail_percentile"`
	GeneratorLateUs float64 `json:"generator_late_p99_us"` // how late the open-loop generator published
	WSPassShare     float64 `json:"ws_pass_share"`

	FloodPublished   int     `json:"flood_published"`
	FloodDeliveredPS float64 `json:"flood_delivered_per_s"` // sse_all
	FloodDropShare   float64 `json:"flood_drop_share"`      // both subscribers
	PublishNsPerCall float64 `json:"publish_ns_per_call"`
	DispatchNsPerMsg float64 `json:"dispatch_ns_per_msg"` // 1 / sse_all flood rate
	FloodCPUPerMelem float64 `json:"flood_cpu_s_per_melem"`
	PeakRSSMB        float64 `json:"peak_rss_mb"`

	ServerPublished uint64  `json:"server_published"`
	ServerDropped   uint64  `json:"server_dropped"`
	PublishWriteP99 float64 `json:"publish_write_p99_us"`
	Reconnects      uint64  `json:"reconnects"`
	Gaps            uint64  `json:"gaps"`
}

// subscriber is one rislive.Client and what it received in the current
// phase: the elem timestamps in arrival order and when each arrived (ns
// since the harness epoch).
type subscriber struct {
	client *rislive.Client
	sub    rislive.Subscription

	mu    sync.Mutex
	stamp []int64 // elem timestamp, Unix micro
	at    []int64 // arrival, ns since the harness epoch
}

func (s *subscriber) receive(ctx context.Context, epoch time.Time, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		_, e, err := s.client.NextElem(ctx)
		if err != nil {
			return
		}
		at := int64(time.Since(epoch))
		s.mu.Lock()
		s.at = append(s.at, at)
		s.stamp = append(s.stamp, e.Timestamp.UnixMicro())
		s.mu.Unlock()
	}
}

func (s *subscriber) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stamp)
}

// take hands over what arrived so far and starts afresh.
func (s *subscriber) take() (stamp, at []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stamp, at = s.stamp, s.at
	s.stamp, s.at = nil, nil
	return stamp, at
}

// inOrder counts how many of the stamps in want, which are strictly
// increasing, got delivers in order: the length of the longest strictly
// increasing run of wanted stamps in got. With no loss, duplication or
// reordering that is all of want.
func inOrder(want, got []int64) int {
	var tails []int64 // tails[k]: the smallest stamp ending an increasing run of length k+1
	for _, g := range got {
		if _, wanted := slices.BinarySearch(want, g); !wanted {
			continue
		}
		if k, _ := slices.BinarySearch(tails, g); k == len(tails) {
			tails = append(tails, g)
		} else {
			tails[k] = g
		}
	}
	return len(tails)
}

// runPush hosts a rislive.Server on a loopback net/http server wired as
// cmd/bgplivesrv wires it (defaults: buffer 1024, keepalive 15 s),
// connects two rislive.Clients over real TCP — sse_all (SSE, no filter)
// and ws_filtered (WebSocket, /8 prefix filters passing about a
// quarter) — and drives the steady and the flood phase.
func runPush(elems []taggedElem, hist *prefixHistogram, cfg pushConfig, tr *tracer, parent int) (*pushResult, error) {
	feed := &rislive.Server{KeepAlive: 15 * time.Second, BufferSize: 1024}
	defer feed.Close()
	mux := http.NewServeMux()
	mux.Handle("/v1/stream", feed)
	mux.Handle("/v1/ws", feed)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln) // returns once Close is called
	}()
	defer func() { srv.Close(); <-served }()

	var wsSub rislive.Subscription
	for _, p := range hist.cover(0.25) {
		wsSub.Prefixes = append(wsSub.Prefixes, core.PrefixFilter{Prefix: p, Match: core.MatchMoreSpecific})
	}
	addr := ln.Addr().String()
	subs := []*subscriber{
		{client: rislive.NewClient("http://"+addr+"/v1/stream", rislive.Subscription{})}, // sse_all
		{client: rislive.NewClient("ws://"+addr+"/v1/stream", wsSub), sub: wsSub},        // ws_filtered
	}
	ctx, cancel := context.WithCancel(context.Background())
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, s := range subs {
		wg.Add(1)
		go s.receive(ctx, epoch, &wg)
	}
	defer func() {
		cancel()
		for _, s := range subs {
			s.client.Close()
		}
		wg.Wait()
	}()
	if err := waitFor(10*time.Second, func() bool { return feed.Stats().Subscribers == len(subs) }); err != nil {
		return nil, fmt.Errorf("subscribers did not connect: %w", err)
	}

	res := &pushResult{}
	g := &generator{feed: feed, elems: elems, subs: subs}

	// Warm-up: TCP ramp-up, client start-up and the first GC cycles are
	// not what a long-lived feed's subscribers see.
	g.begin()
	g.paced(cfg.rate, cfg.rate/10)
	if err := g.drain(5 * time.Second); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	g.begin()
	id := tr.begin("rislive.steady", parent)
	late := g.paced(cfg.rate, int(float64(cfg.rate)*cfg.steady.Seconds()))
	if err := g.drain(5 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "push steady: %v\n", err)
	}
	tr.end(id)
	var lat []float64
	for i, s := range subs {
		want := g.owed[i]
		stamp, at := s.take()
		res.SteadyExpected += len(want)
		// Deliveries nobody asked for are failures too.
		res.SteadyInOrder += inOrder(want, stamp) - max(len(stamp)-len(want), 0)
		for k, st := range stamp {
			due := (st - epoch.UnixMicro()) * 1000
			lat = append(lat, float64(at[k]-due)/1e6)
		}
	}
	if len(lat) == 0 {
		return nil, errors.New("steady phase delivered nothing")
	}
	lat = sorted(lat)
	res.SteadySamples = len(lat)
	res.LatencyP50Ms = quantileSorted(lat, 0.5)
	res.LatencyP99Ms = quantileSorted(lat, 0.99)
	res.TailPercentile = highestPercentile(len(lat))
	res.LatencyTailMs = quantileSorted(lat, res.TailPercentile)
	res.GeneratorLateUs = quantileSorted(sorted(late), 0.99)
	res.WSPassShare = float64(len(g.owed[1])) / float64(len(g.owed[0]))

	// Flood: capacity and drop accounting. The class is lossy by
	// contract, so drops here are reported, not failures.
	g.begin()
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	id = tr.begin("rislive.flood", parent)
	floodStart := time.Now()
	n := 0
	for time.Since(floodStart) < cfg.flood {
		for k := 0; k < 256; k++ {
			g.publish(time.Now())
		}
		n += 256
	}
	publishWall := time.Since(floodStart)
	if err := g.drain(10 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "push flood: %v\n", err)
	}
	tr.end(id)
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	res.FloodPublished = n
	res.PublishNsPerCall = float64(publishWall) / float64(n)
	owed, got := 0, 0
	for i, s := range subs {
		stamp, at := s.take()
		owed += len(g.owed[i])
		got += len(stamp)
		if i == 0 {
			res.FloodDeliveredPS = windowRate(at, floodStart.Sub(epoch), publishWall)
			res.DispatchNsPerMsg = 1e9 / res.FloodDeliveredPS
		}
	}
	res.FloodDropShare = float64(owed-got) / float64(owed)
	res.ServerDropped = feed.Stats().Dropped - g.dropBase
	cpu := time.Duration(ru1.Utime.Nano() + ru1.Stime.Nano() - ru0.Utime.Nano() - ru0.Stime.Nano())
	res.FloodCPUPerMelem = cpu.Seconds() / float64(n) * 1e6
	res.PeakRSSMB = float64(ru1.Maxrss) / 1024

	res.ServerPublished = feed.Stats().Published
	for _, p := range obsv.Default.Gather() {
		if p.Family == "bgpstream_rislive_publish_write_seconds" && p.Hist != nil {
			res.PublishWriteP99 = p.Hist.Quantile(0.99) * 1e6
		}
	}
	for _, s := range subs {
		cs := s.client.Stats()
		res.Reconnects += cs.Reconnects
		res.Gaps += uint64(len(s.client.TakeGaps()))
	}
	return res, nil
}

// floodWindow is the length of the windows the flood's delivery rate is
// the median of: a scheduler stall then costs one window, not the run.
const floodWindow = 200 * time.Millisecond

// windowRate returns the median arrivals per second over the whole
// floodWindows of [from, from+length), given arrival times in ns.
func windowRate(at []int64, from, length time.Duration) float64 {
	counts := make([]float64, int(length/floodWindow))
	for _, t := range at {
		if w := int((time.Duration(t) - from) / floodWindow); w >= 0 && w < len(counts) {
			counts[w]++
		}
	}
	return median(counts) / floodWindow.Seconds()
}

// generator publishes the corpus elems, re-stamped, and knows exactly
// which stamps each subscriber is owed in the current phase.
type generator struct {
	feed     *rislive.Server
	elems    []taggedElem
	subs     []*subscriber
	next     int       // index into elems, cycling
	last     int64     // last stamp handed out, to keep stamps unique
	owed     [][]int64 // per subscriber: stamps it must receive, in order
	dropBase uint64    // the server's drop counter when the phase began
}

// begin starts a phase: nothing owed, nothing received, no drops yet.
func (g *generator) begin() {
	g.owed = make([][]int64, len(g.subs))
	for _, s := range g.subs {
		s.take()
	}
	g.dropBase = g.feed.Stats().Dropped
}

// publish sends the next elem stamped with the given time (made unique
// at microsecond precision: the stamp is the elem's identity).
func (g *generator) publish(stamp time.Time) {
	te := &g.elems[g.next%len(g.elems)]
	g.next++
	us := max(stamp.UnixMicro(), g.last+1)
	g.last = us
	e := te.elem // Publish encodes before it returns; the copy keeps the corpus intact
	e.Timestamp = time.UnixMicro(us).UTC()
	for i, s := range g.subs {
		if s.sub.Matches(te.project, te.collector, &e) {
			g.owed[i] = append(g.owed[i], us)
		}
	}
	g.feed.Publish(te.project, te.collector, &e)
}

// paced is the open loop: n elems at rate per second, each published
// when it is due and stamped with its due time, so that a stalled
// generator shows up as latency. It returns how late each publish
// started, in microseconds.
//
// With a processor to spare the generator busy-waits for the due time
// without yielding: this host's timers fire about a millisecond late,
// which would otherwise be most of the median, and a loop that yields
// with runtime.Gosched keeps its P from ever polling the network, which
// adds two milliseconds of the harness's own making. On one processor
// it has to sleep, and the latencies then include the timer slack.
func (g *generator) paced(rate, n int) []float64 {
	late := make([]float64, 0, n)
	interval := time.Second / time.Duration(rate)
	spin := runtime.GOMAXPROCS(0) >= 2
	start := time.Now().Add(5 * time.Millisecond)
	var last time.Time
	for i := 0; i < n; {
		due := start.Add(time.Duration(i) * interval)
		// After a stall of this process the backlog goes out at twice
		// the rate, not back to back: a frozen harness must not turn
		// the steady phase into a flood that overflows the buffers.
		wait := max(time.Until(due), time.Until(last.Add(interval/2)))
		switch {
		case wait > 2*time.Millisecond:
			time.Sleep(wait - 1500*time.Microsecond)
		case wait > 0 && !spin:
			time.Sleep(wait)
		case wait > 0:
		default:
			last = time.Now()
			late = append(late, float64(last.Sub(due))/1e3)
			g.publish(due)
			i++
		}
	}
	return late
}

// drain waits until every delivery owed in this phase has arrived or
// been counted as dropped by the server.
func (g *generator) drain(limit time.Duration) error {
	owed := 0
	for _, o := range g.owed {
		owed += len(o)
	}
	return waitFor(limit, func() bool {
		got := int(g.feed.Stats().Dropped - g.dropBase)
		for _, s := range g.subs {
			got += s.count()
		}
		return got >= owed
	})
}

// waitFor polls cond every millisecond for at most limit.
func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("gave up after %s", limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// pushShape splits a run's measuring time between the phases: the
// steady phase gets most of it because the latency percentiles need the
// samples; the flood only has to outlast the buffers by a wide margin.
func pushShape(seconds float64) pushConfig {
	return pushConfig{
		rate:   20000,
		steady: time.Duration(0.55 * seconds * float64(time.Second)),
		flood:  time.Duration(0.3 * seconds * float64(time.Second)),
	}
}

// runPushWorkload measures push_live. The server, the clients and the
// generator live in one child process of this harness, started fresh
// after set-up, so that its CPU, peak RSS and GC state are those of the
// feed and not of the corpus generator.
func (e *env) runPushWorkload(w *workload) (*runResult, error) {
	p, setup, err := e.repeatSetup(w, "")
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-push-child", e.corpusDir(), "-seconds", fmt.Sprint(e.seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("push child: %w", err)
	}
	var pr pushResult
	res := newRunResult(p.Manifest)
	if err := errors.Join(json.Unmarshal(out, &pr), json.Unmarshal(out, &res.Extra)); err != nil {
		return nil, fmt.Errorf("push child output: %w", err)
	}
	res.Attempted = pr.SteadyExpected
	res.Failed = pr.SteadyExpected - pr.SteadyInOrder
	res.Metrics["setup_s"] = setup
	res.Metrics["elems_per_s"] = pr.FloodDeliveredPS
	res.Metrics["cpu_s_per_melem"] = pr.FloodCPUPerMelem
	res.Metrics["peak_rss_mb"] = pr.PeakRSSMB
	res.Metrics["latency_p50_ms"] = pr.LatencyP50Ms
	return res, nil
}

// runPushChild is the child process of runPushWorkload.
func runPushChild(dir string, seconds float64) error {
	cfg := pushShape(seconds)
	need := int(float64(cfg.rate)*cfg.steady.Seconds()) + cfg.rate/10
	elems, hist, err := loadElems(dir, updatesPart.DumpType, need)
	if err != nil {
		return err
	}
	runtime.GC()
	pr, err := runPush(elems, hist, cfg, nil, 0)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(pr)
}
