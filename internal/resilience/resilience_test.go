package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassTransient},
		{"plain", errors.New("boom"), ClassTransient},
		{"net op", &net.OpError{Op: "read", Err: errors.New("connection reset by peer")}, ClassTransient},
		{"unexpected eof", io.ErrUnexpectedEOF, ClassTransient},
		{"deadline (attempt timeout)", context.DeadlineExceeded, ClassTransient},
		{"canceled", context.Canceled, ClassPermanent},
		{"wrapped canceled", fmt.Errorf("op: %w", context.Canceled), ClassPermanent},
		{"marked permanent", MarkPermanent(errors.New("bad checksum")), ClassPermanent},
		{"marked wrapped", fmt.Errorf("op: %w", MarkPermanent(errors.New("x"))), ClassPermanent},
		{"exhausted", &ExhaustedError{Op: "f", Attempts: 3, Cause: errors.New("x")}, ClassPermanent},
		{"breaker open", &OpenError{Host: "h"}, ClassPermanent},
		{"http 404", &HTTPError{Status: 404}, ClassPermanent},
		{"http 410", &HTTPError{Status: 410}, ClassPermanent},
		{"http 403", &HTTPError{Status: 403}, ClassPermanent},
		{"http 408", &HTTPError{Status: 408}, ClassTransient},
		{"http 429", &HTTPError{Status: 429}, ClassTransient},
		{"http 500", &HTTPError{Status: 500}, ClassTransient},
		{"http 503 wrapped", fmt.Errorf("q: %w", &HTTPError{Status: 503}), ClassTransient},
		{"progress, transient cause", Progress(errors.New("dropped")), ClassTransient},
		{"progress, permanent cause", Progress(&HTTPError{Status: 400}), ClassPermanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if IsPermanent(nil) {
		t.Error("IsPermanent(nil) = true")
	}
}

func TestExhaustedErrorHidesEOFCause(t *testing.T) {
	err := error(&ExhaustedError{Op: "resume", Attempts: 2, Cause: io.ErrUnexpectedEOF})
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		t.Fatalf("ExhaustedError leaks its EOF cause into the Is-chain: %v", err)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("ExhaustedError does not match ErrExhausted: %v", err)
	}
}

func TestOpenErrorMatchesSentinel(t *testing.T) {
	err := fmt.Errorf("fetch: %w", &OpenError{Host: "archive.example"})
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("OpenError does not match ErrBreakerOpen: %v", err)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	if d := ParseRetryAfter("7", now); d != 7*time.Second {
		t.Errorf("seconds form: got %v", d)
	}
	if d := ParseRetryAfter(now.Add(90*time.Second).Format(time.RFC1123Z), now); d <= 0 {
		// RFC1123Z is not the canonical header format but http.ParseTime
		// accepts RFC1123; use the GMT form below for the strict check.
		t.Logf("RFC1123Z form not parsed (ok): %v", d)
	}
	if d := ParseRetryAfter(now.Add(90*time.Second).UTC().Format("Mon, 02 Jan 2006 15:04:05 GMT"), now); d != 90*time.Second {
		t.Errorf("date form: got %v", d)
	}
	if d := ParseRetryAfter("", now); d != 0 {
		t.Errorf("empty: got %v", d)
	}
	if d := ParseRetryAfter("garbage", now); d != 0 {
		t.Errorf("garbage: got %v", d)
	}
	if d := ParseRetryAfter("-3", now); d != 0 {
		t.Errorf("negative: got %v", d)
	}
}

func TestPolicyRetriesTransientThenSucceeds(t *testing.T) {
	p := Policy{MaxAttempts: 4, Backoff: time.Millisecond, randFloat: func() float64 { return 0.5 }}
	calls := 0
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil/3", err, calls)
	}
}

func TestPolicyStopsOnPermanent(t *testing.T) {
	p := Policy{MaxAttempts: 5, Backoff: time.Millisecond}
	calls := 0
	want := &HTTPError{Status: 404, URL: "u"}
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return want
	})
	if calls != 1 {
		t.Fatalf("permanent error retried: %d calls", calls)
	}
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != 404 {
		t.Fatalf("got %v, want the 404", err)
	}
}

func TestPolicyExhaustsBudget(t *testing.T) {
	p := Policy{MaxAttempts: 3, Backoff: time.Millisecond, randFloat: func() float64 { return 0 }}
	calls := 0
	retries := 0
	p.OnRetry = func(error) { retries++ }
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		return errors.New("still down")
	})
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3/2", calls, retries)
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if !IsPermanent(err) {
		t.Fatal("exhausted budget must classify permanent")
	}
}

func TestPolicyContextCancelStopsRetries(t *testing.T) {
	// A Progress error waits one base step, here as long as any other.
	for _, attemptErr := range []error{errors.New("transient"), Progress(errors.New("dropped"))} {
		ctx, cancel := context.WithCancel(context.Background())
		p := Policy{MaxAttempts: 100, Backoff: time.Hour} // would sleep forever
		calls := 0
		done := make(chan error, 1)
		go func() {
			done <- p.Do(ctx, "op", func(context.Context) error {
				calls++
				return attemptErr
			})
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("want the attempt error after cancel, got nil")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Do did not return after context cancel (%v)", attemptErr)
		}
		if calls != 1 {
			t.Fatalf("calls=%d, want 1", calls)
		}
	}
}

// TestPolicyProgressRestartsBudget fails an operation up the backoff
// ladder, then reports progress on its last budgeted attempt: Do must
// retry after one base step instead of the next rung, and count the
// budget again from the first attempt.
func TestPolicyProgressRestartsBudget(t *testing.T) {
	const base = 5 * time.Millisecond
	p := Policy{MaxAttempts: 6, Backoff: base, MaxBackoff: time.Second, randFloat: func() float64 { return 0.5 }}
	calls := 0
	var progressAt, resumedAt time.Time
	err := p.Do(context.Background(), "op", func(context.Context) error {
		calls++
		switch {
		case calls == 6:
			progressAt = time.Now()
			return Progress(errors.New("delivered, then dropped"))
		case calls == 7:
			resumedAt = time.Now()
		}
		return errors.New("down")
	})
	var ee *ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("err = %v, want an ExhaustedError", err)
	}
	if calls != 12 || ee.Attempts != 6 {
		t.Fatalf("calls = %d, exhausted after %d attempts; want 6 + 6 (the budget restarts at 1)", calls, ee.Attempts)
	}
	// The wait after Progress is delay(1) = base exactly (randFloat 0.5
	// makes the jitter factor 1); the ladder would have waited 32 base.
	if gap := resumedAt.Sub(progressAt); gap < base || gap >= 16*base {
		t.Fatalf("wait after Progress = %v, want one base step (%v)", gap, base)
	}
}

func TestPolicyDelay(t *testing.T) {
	p := Policy{Backoff: 100 * time.Millisecond, MaxBackoff: time.Second, randFloat: func() float64 { return 0.5 }}
	// Jitter factor at randFloat=0.5 is exactly 1.0.
	for _, c := range []struct {
		attempt int
		want    time.Duration
	}{{1, 100 * time.Millisecond}, {2, 200 * time.Millisecond}, {3, 400 * time.Millisecond}, {10, time.Second}} {
		if got := p.delay(c.attempt, 0); got != c.want {
			t.Errorf("delay(%d) = %v, want %v", c.attempt, got, c.want)
		}
	}
	// A server Retry-After hint floors the computed delay.
	if got := p.delay(1, 700*time.Millisecond); got != 700*time.Millisecond {
		t.Errorf("hinted delay = %v, want 700ms", got)
	}
	if got := p.delay(10, 700*time.Millisecond); got != time.Second {
		t.Errorf("hint below computed delay must not shrink it: %v", got)
	}
	// Jitter bounds: factor in [0.75, 1.25).
	lo := Policy{Backoff: 100 * time.Millisecond, randFloat: func() float64 { return 0 }}
	hi := Policy{Backoff: 100 * time.Millisecond, randFloat: func() float64 { return 0.999999 }}
	if got := lo.delay(1, 0); got != 75*time.Millisecond {
		t.Errorf("low jitter = %v, want 75ms", got)
	}
	if got := hi.delay(1, 0); got < 124*time.Millisecond || got > 125*time.Millisecond {
		t.Errorf("high jitter = %v, want ~125ms", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	set := NewBreakerSet(3, 10*time.Second)
	set.now = func() time.Time { return now }
	b := set.For("archive.example")
	if set.For("archive.example") != b {
		t.Fatal("For must return the same breaker per host")
	}

	// Closed: failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused: %v", err)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after 2/3 failures", b.State())
	}
	// Third consecutive failure trips it.
	if err := b.Allow(); err != nil {
		t.Fatal("closed breaker refused")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open", b.State())
	}
	if set.Open() != 1 {
		t.Fatalf("set.Open()=%d, want 1", set.Open())
	}
	// Open: refuses with the sentinel until the cooldown elapses.
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed (err=%v)", err)
	}
	// Cooldown elapsed: exactly one half-open probe.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe allowed (err=%v)", err)
	}
	// Probe failure re-opens.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after failed probe, want open", b.State())
	}
	// Next probe succeeds: closed, gauge drops.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after successful probe, want closed", b.State())
	}
	if set.Open() != 0 {
		t.Fatalf("set.Open()=%d, want 0", set.Open())
	}
	if set.Transitions() == 0 {
		t.Fatal("transitions not counted")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	set := NewBreakerSet(3, time.Minute)
	b := set.For("h")
	b.Failure()
	b.Failure()
	b.Success() // streak broken
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("non-consecutive failures tripped the breaker: %v", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open after 3 consecutive", b.State())
	}
}
