package rislive

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgpstream-go/bgpstream/internal/resilience"
)

// bothTransports runs f against h once over SSE and once over
// WebSocket.
func bothTransports(t *testing.T, h http.Handler, f func(t *testing.T, url string)) {
	for name, url := range map[string]func(string) string{"sse": func(u string) string { return u }, "ws": wsURL} {
		t.Run(name, func(t *testing.T) {
			hs := httptest.NewServer(h)
			defer hs.Close()
			f(t, url(hs.URL))
		})
	}
}

// TestClientRejectedHandshakeIsTerminal answers every connection with
// 400: a bad subscription never gets better, so the client must give
// up after one request even with unlimited retries.
func TestClientRejectedHandshakeIsTerminal(t *testing.T) {
	var requests atomic.Int32
	bothTransports(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "bad subscription", http.StatusBadRequest)
	}), func(t *testing.T, url string) {
		requests.Store(0)
		c := fastClient(url)
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, _, err := c.NextElem(ctx)
		var he *resilience.HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
			t.Fatalf("err = %v, want a terminal HTTP 400", err)
		}
		if n := requests.Load(); n != 1 {
			t.Fatalf("%d requests, want exactly 1", n)
		}
	})
}

// TestClientHonoursRetryAfter answers every connection with 503 and
// Retry-After: 1. The client must retry, but no sooner than the hint,
// although its own backoff is 10ms.
func TestClientHonoursRetryAfter(t *testing.T) {
	requests := make(chan time.Time, 2) // each subtest reads the two it causes
	bothTransports(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests <- time.Now()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}), func(t *testing.T, url string) {
		c := fastClient(url)
		defer c.Close()
		go c.NextElem(context.Background())
		var at [2]time.Time
		for i := range at {
			select {
			case at[i] = <-requests:
			case <-time.After(10 * time.Second):
				t.Fatalf("request %d never came: the 503 was not retried", i+1)
			}
		}
		if gap := at[1].Sub(at[0]); gap < time.Second {
			t.Fatalf("retry %v after the 503, want >= the 1s Retry-After", gap)
		}
	})
}

// TestClientProgressResetsRetryBudget serves connections that end at
// once, alternately after one message and after none. With RetryMax 2
// the client never sees two unproductive connections in a row, so it
// must keep going however many connections it takes.
func TestClientProgressResetsRetryBudget(t *testing.T) {
	var scripts [][]Message
	for i := 0; i < 6; i++ {
		scripts = append(scripts, []Message{feedMsg(i)}, nil)
	}
	hs := scriptedSSE(t, append(scripts, []Message{feedMsg(6)}))
	defer hs.Close()

	c := fastClient(hs.URL)
	c.RetryMax = 2
	defer c.Close()
	readElems(t, c, 7) // 13 connections, 6 of them unproductive
}

// TestClientReadTimeoutReconnects holds every SSE connection open
// without a byte: each must end at ReadTimeout as a transient fault
// (not as the context cancellation the read timer uses, which would
// classify permanent), so the client reconnects instead of giving up.
func TestClientReadTimeoutReconnects(t *testing.T) {
	hs := scriptedSSE(t, [][]Message{nil})
	defer hs.Close()
	c := fastClient(hs.URL)
	c.ReadTimeout = 20 * time.Millisecond
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.NextElem(context.Background())
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); c.Stats().Reconnects < 2; {
		select {
		case err := <-errc:
			t.Fatalf("client gave up: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reconnects, want one after each read timeout", c.Stats().Reconnects)
		}
	}
	c.Close()
	if err := <-errc; err != io.EOF {
		t.Fatalf("err after Close = %v, want io.EOF", err)
	}
}

// TestClientCloseDuringBackoff closes a client that waits out a one-hour
// reconnect backoff: NextElem must return io.EOF at once, and no client
// goroutine may outlive Close.
func TestClientCloseDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every connection attempt fails

	baseline := runtime.NumGoroutine()
	c := NewClient("http://"+addr, Subscription{})
	c.Backoff, c.BackoffMax = time.Hour, time.Hour
	ended := make(chan struct{}, 1)
	c.Logf = func(string, ...any) { // only "stream ended", before the backoff
		select {
		case ended <- struct{}{}:
		default:
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.NextElem(context.Background())
		errc <- err
	}()
	<-ended
	c.Close()
	select {
	case err := <-errc:
		if err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	case <-time.After(time.Second):
		t.Fatal("NextElem did not return within 1s of Close")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
	}
}
