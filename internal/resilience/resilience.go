// Package resilience is the fault-tolerance layer shared by every
// network edge of the pipeline: transient-vs-permanent error
// classification, a jittered-exponential-backoff retry policy,
// per-host circuit breakers, and a resumable HTTP fetcher that
// continues an interrupted dump transfer from the last consumed byte
// offset instead of refetching (or, worse, abandoning) the file.
//
// The classification contract is the load-bearing piece: callers
// retry what Classify deems transient (connection resets, timeouts,
// 5xx, 429) and fail fast on what it deems permanent (other 4xx,
// exhausted retry budgets, open circuit breakers, cancelled
// contexts), so a dead URL costs one request while a flaky one costs
// a reconnect.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Class partitions errors by whether retrying can help.
type Class int

const (
	// ClassTransient errors may succeed on retry: connection failures,
	// timeouts, 5xx-family responses, rate limiting.
	ClassTransient Class = iota
	// ClassPermanent errors will not improve with retries: client
	// errors (404/410/403...), exhausted budgets, open breakers,
	// cancelled contexts.
	ClassPermanent
)

// ErrExhausted marks an operation abandoned after its retry budget
// was spent; test with errors.Is. The terminal cause is rendered in
// the message but deliberately kept out of the Unwrap chain so that
// EOF-family causes cannot be mistaken for end-of-stream by upstream
// decoders.
var ErrExhausted = errors.New("resilience: retry budget exhausted")

// ErrBreakerOpen marks a request refused locally because the target
// host's circuit breaker is open; test with errors.Is. It classifies
// as permanent so retry loops fail fast instead of burning their
// budget against a host that is known down.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// ExhaustedError is the concrete error Policy.Do and the resuming
// fetcher return when they give up. Unwrap yields only ErrExhausted —
// never Cause — so classification stays stable no matter what the
// last attempt failed with.
type ExhaustedError struct {
	Op       string // what was being attempted
	Attempts int    // attempts (or resumes) consumed
	Cause    error  // terminal error, for the message only
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("%s: %v after %d attempts: %v", e.Op, ErrExhausted, e.Attempts, e.Cause)
}

// Unwrap intentionally hides Cause: see ExhaustedError.
func (e *ExhaustedError) Unwrap() error { return ErrExhausted }

// HTTPError reports a non-success HTTP response, carrying enough for
// classification (status) and backoff (Retry-After, when the server
// sent one).
type HTTPError struct {
	URL        string
	Status     int
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("%s: http status %d %s", e.URL, e.Status, http.StatusText(e.Status))
}

// Transient reports whether the status is worth retrying: request
// timeout, rate limiting, and the 5xx family.
func (e *HTTPError) Transient() bool {
	return e.Status == http.StatusRequestTimeout ||
		e.Status == http.StatusTooManyRequests ||
		e.Status >= 500
}

// permanentError marks a wrapped error permanent regardless of what
// Classify would say about the cause.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// MarkPermanent wraps err so Classify reports it permanent. Callers
// use it to veto retries for failures the classifier would otherwise
// consider transient (e.g. a checksum mismatch surfaced as an I/O
// error). MarkPermanent(nil) returns nil.
func MarkPermanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// progressError marks a failed attempt that did useful work first.
type progressError struct{ err error }

func (e *progressError) Error() string { return e.err.Error() }
func (e *progressError) Unwrap() error { return e.err }

// Progress wraps err, the failure of an attempt that did useful work
// before it failed (a feed connection that delivered messages, then
// dropped). Policy.Do restarts its attempt budget on it and retries
// after one base backoff step, so a long-lived operation that keeps
// making progress never exhausts its budget. Classification is the
// cause's: a permanent cause still stops Do. Progress(nil) returns nil.
func Progress(err error) error {
	if err == nil {
		return nil
	}
	return &progressError{err: err}
}

// Classify partitions err into transient (retry may help) or
// permanent (fail fast). The default for unrecognised errors is
// transient: network failures come in too many shapes to enumerate,
// and a wasted retry is cheaper than silently dropping a recoverable
// fetch.
//
// context.DeadlineExceeded classifies transient — when it reaches a
// classifier the deadline was an attempt-scoped timeout, not the
// caller's context (Policy.Do checks the caller's context before
// classifying). context.Canceled classifies permanent: cancellation
// is a decision, not a fault.
func Classify(err error) Class {
	if err == nil {
		return ClassTransient
	}
	var pe *permanentError
	if errors.As(err, &pe) {
		return ClassPermanent
	}
	if errors.Is(err, ErrExhausted) || errors.Is(err, ErrBreakerOpen) || errors.Is(err, context.Canceled) {
		return ClassPermanent
	}
	var he *HTTPError
	if errors.As(err, &he) {
		if he.Transient() {
			return ClassTransient
		}
		return ClassPermanent
	}
	return ClassTransient
}

// IsPermanent reports whether Classify deems err permanent; nil is
// not permanent.
func IsPermanent(err error) bool {
	return err != nil && Classify(err) == ClassPermanent
}

// RetryAfterOf extracts the server's Retry-After hint from an error
// chain, or 0 when no HTTPError in the chain carries one.
func RetryAfterOf(err error) time.Duration {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.RetryAfter
	}
	return 0
}

// ParseRetryAfter parses an HTTP Retry-After header value — delta
// seconds or an HTTP date — into a wait duration relative to now.
// Absent, malformed, or already-elapsed values yield 0.
func ParseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec <= 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// httpError builds the HTTPError for a non-success response, reading
// the Retry-After hint, and drains/closes the body so the connection
// can be reused.
func httpError(resp *http.Response, url string, now time.Time) *HTTPError {
	drainBody(resp)
	return &HTTPError{
		URL:        url,
		Status:     resp.StatusCode,
		RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After"), now),
	}
}
