package resilience

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"
)

// Policy defaults, shared by every edge that doesn't configure its
// own: three attempts with 250ms initial backoff keep a transient
// blip sub-second while a dead endpoint costs well under two seconds
// before the caller learns about it.
const (
	DefaultMaxAttempts = 3
	DefaultBackoff     = 250 * time.Millisecond
	DefaultMaxBackoff  = 8 * time.Second
	defaultJitter      = 0.5
)

// Policy is a retry policy: attempts are separated by jittered
// exponential backoff, permanent errors (per Classify) abort
// immediately, and the caller's context cancels both the operation
// and the sleeps. The zero value uses the defaults above.
type Policy struct {
	// MaxAttempts bounds total tries including the first (<=0 selects
	// DefaultMaxAttempts; 1 disables retries).
	MaxAttempts int
	// Backoff is the delay before the second attempt, doubled per
	// subsequent attempt up to MaxBackoff (<=0 selects the defaults).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// AttemptTimeout, when positive, bounds each attempt with a
	// derived context deadline. Leave zero for operations whose result
	// outlives the attempt (streamed response bodies): the timeout
	// would cancel the stream mid-read.
	AttemptTimeout time.Duration
	// OnRetry, when set, observes each scheduled retry (for instance
	// counters); the global retry counter is maintained regardless.
	OnRetry func(err error)

	// randFloat substitutes the jitter source in tests; nil selects
	// math/rand/v2.
	randFloat func() float64
}

func (p Policy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return DefaultMaxAttempts
}

func (p Policy) backoff() time.Duration {
	if p.Backoff > 0 {
		return p.Backoff
	}
	return DefaultBackoff
}

func (p Policy) maxBackoff() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return DefaultMaxBackoff
}

// delay computes the sleep before attempt+1: exponential from Backoff
// with ±25% jitter, floored at the server's Retry-After hint when the
// failed attempt carried one.
func (p Policy) delay(attempt int, hint time.Duration) time.Duration {
	d := p.backoff()
	max := p.maxBackoff()
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	rf := p.randFloat
	if rf == nil {
		rf = rand.Float64
	}
	// Jitter: uniform in [1-j/2, 1+j/2) so the mean delay is unbiased.
	d = time.Duration(float64(d) * (1 - defaultJitter/2 + defaultJitter*rf()))
	if hint > d {
		d = hint
	}
	return d
}

// Do runs op under the policy: the first error classified permanent
// is returned as-is, transient errors are retried up to MaxAttempts
// with jittered exponential backoff (honouring Retry-After hints),
// and budget exhaustion returns an *ExhaustedError naming what. An
// error marked with Progress restarts the budget: the next attempt
// counts as the first and follows one base backoff step. The op
// receives ctx, bounded per attempt when AttemptTimeout is set;
// cancellation of ctx stops both attempts and sleeps.
func (p Policy) Do(ctx context.Context, what string, op func(context.Context) error) error {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for attempt := 1; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc
		if p.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		}
		err := op(actx)
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// The caller's context ended: surface the attempt's error
			// without retrying (it usually wraps the context error).
			return err
		}
		if Classify(err) == ClassPermanent {
			metPermanentFailures.Inc()
			return err
		}
		var pe *progressError
		if errors.As(err, &pe) {
			attempt = 0 // the loop's increment makes the next one the first
		} else if attempt >= p.attempts() {
			metExhausted.Inc()
			return &ExhaustedError{Op: what, Attempts: attempt, Cause: err}
		}
		metRetries.Inc()
		if p.OnRetry != nil {
			p.OnRetry(err)
		}
		d := p.delay(max(attempt, 1), RetryAfterOf(err))
		// Reusable timer: time.After in a loop would leak a timer per
		// retry for the full backoff duration.
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
		select {
		case <-timer.C:
		case <-ctx.Done():
			return err
		}
	}
}
